package resolver

// Clist checkpoint/restore: the streaming (Server.Serve) restart story.
// The resolver is the one pipeline stage whose state cannot be
// reconstructed from future traffic — a DNS response sniffed before a
// crash labels flows that start after the restart (clients keep resolving
// from their OS caches for minutes to hours, the very effect the paper's
// Clist replicates). A checkpoint serializes the live Clist in FIFO order
// so a restarted process resumes with the same (client, server) → FQDN
// view, and — because order is preserved — the same future eviction
// sequence.
//
// The snapshot is compacting: tombstones (the Clist places of entries
// freed once every key naming them was superseded) are skipped, so a
// restored Clist holds only live state and may be shorter than the
// original. Restore replays entries through Insert, which rebuilds the
// lookup table and the back-references exactly as the original inserts did.
//
// The wire format is a small versioned binary framing (netip.Addr does
// not survive encoding/gob): addresses are length-prefixed
// netip.Addr.MarshalBinary output, strings are uvarint-length-prefixed
// UTF-8, integers are fixed-width little-endian. Version 2 appends an
// integrity trailer — a redundant version byte plus a CRC32 (IEEE,
// little-endian) over everything before it — so a truncated or bit-rotted
// file is rejected with ErrSnapshotCorrupt instead of being half-restored,
// and a file written by a newer release is rejected with
// ErrSnapshotVersion instead of being misparsed. Version-1 files (no
// trailer) are still read.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/netip"
	"time"
)

// snapshotMagicPrefix identifies the checkpoint framing; the byte after
// it is the format version.
const snapshotMagicPrefix = "DNHCLIST"

// snapshotVersion is the format WriteSnapshot emits.
const snapshotVersion = 2

// snapshotTrailerLen is the v2 trailer: version byte + CRC32.
const snapshotTrailerLen = 5

// snapshotMaxEntry bounds per-entry variable-length fields when reading,
// so a corrupt or hostile file cannot provoke huge allocations.
const (
	snapshotMaxFQDN    = 4096
	snapshotMaxServers = 1 << 16
)

// SnapshotEntry is one live Clist entry in portable form: the client that
// resolved FQDN, the server addresses the response carried (only those
// whose back-references are still live), and the entry's bookkeeping.
type SnapshotEntry struct {
	Client  netip.Addr
	Servers []netip.Addr
	FQDN    string
	// At is the trace time the DNS response was observed, relative to the
	// checkpointed run's own trace start. A restarted run's clock restarts
	// at zero, so flows labeled by restored entries can report a DNSDelay
	// spanning the restart.
	At time.Duration
	// Used carries the paper's useless-DNS bookkeeping (Table 9) across
	// the restart.
	Used bool
}

// Snapshot returns the live Clist in FIFO order (oldest first).
// Tombstones are skipped; see the package notes on compaction. Every
// entry's Servers is carved from one backing array, so a snapshot costs the
// same few allocations at any size.
func (r *Resolver) Snapshot() []SnapshotEntry {
	var n, nsrv int
	// names counts an entry's Clist slot and every node naming it, each of
	// them on its back-reference list.
	r.eachLive(func(e *Entry) { n, nsrv = n+1, nsrv+int(e.count())-1 })
	out := make([]SnapshotEntry, 0, n)
	servers := make([]netip.Addr, nsrv)
	r.eachLive(func(e *Entry) {
		// All of an entry's nodes share one client: they are linked only by
		// the Insert call that created the entry.
		ft := r.flat
		se := SnapshotEntry{FQDN: r.names.Str(e.FQDN), At: e.At, Used: e.Used()}
		k := 0
		for slot := e.refs; k == 0 || slot != e.refs; slot = ft.nodes.At(slot).next {
			se.Client, servers[k] = ft.addrs(slot)
			k++
		}
		se.Servers, servers = servers[:k:k], servers[k:]
		out = append(out, se)
	})
	return out
}

// eachLive calls fn on every Clist entry in FIFO order (oldest first).
// Tombstones are skipped without touching the entry slab; every other
// entry has a back-reference, since an entry no node names is tombstoned
// at once.
func (r *Resolver) eachLive(fn func(*Entry)) {
	// Until the ring wraps, next is 0 and slots 0..len-1 are FIFO order;
	// after that the oldest entry sits at next.
	for _, part := range [2][]uint32{r.clist[r.next:], r.clist[:r.next]} {
		for _, s := range part {
			if s != noSlot {
				fn(r.entries.At(s))
			}
		}
	}
}

// Restore replays a snapshot into the resolver, oldest entry first, so
// the rebuilt Clist preserves the checkpointed FIFO (eviction) order. It
// must be called on a fresh resolver, before any traffic; restoring over
// live state inserts the snapshot as if it were new DNS responses.
//
// The activity counters (Stats) are left at zero: they describe the new
// process's work, not the previous one's.
func (r *Resolver) Restore(entries []SnapshotEntry) {
	saved := r.stats
	for i := range entries {
		se := &entries[i]
		if !se.Client.IsValid() || len(se.Servers) == 0 {
			continue
		}
		r.Insert(se.Client, se.FQDN, se.Servers, se.At)
		if se.Used {
			// Insert filed the entry under every (client, server) pair;
			// any of them resolves it. The lookup it counts is undone with
			// the other counters below.
			if e, ok := r.LookupEntry(se.Client, se.Servers[0]); ok {
				e.SetUsed()
			}
		}
	}
	r.stats = saved
}

// WriteSnapshot serializes its parts to w as one snapshot in the versioned
// binary framing (version 2: CRC32 + version trailer; see the package
// notes). The parts are merged by At, ties going to the lower part index,
// so each part keeps its own order: a sharded engine passes one Snapshot
// per shard and gets every shard's FIFO back on restore, without copying
// or sorting. The parts are not modified.
func WriteSnapshot(w io.Writer, parts ...[]SnapshotEntry) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.WriteString(snapshotMagicPrefix); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	// scratch holds one uvarint, or one length-prefixed address: the
	// bytes MarshalBinary would return, appended without allocating.
	var scratch [max(binary.MaxVarintLen64, 1+16)]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	writeAddr := func(a netip.Addr) error {
		b, err := a.AppendBinary(scratch[:1])
		if err != nil {
			return err
		}
		b[0] = byte(len(b) - 1)
		_, err = bw.Write(b)
		return err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if err := writeUvarint(uint64(n)); err != nil {
		return err
	}
	heads := make([]int, len(parts))
	for i := range n {
		// The earliest head goes next. A linear scan is enough: there is
		// one part per shard, and shards are few.
		k := -1
		for j, p := range parts {
			if h := heads[j]; h < len(p) && (k < 0 || p[h].At < parts[k][heads[k]].At) {
				k = j
			}
		}
		se := &parts[k][heads[k]]
		heads[k]++
		if len(se.FQDN) > snapshotMaxFQDN {
			return fmt.Errorf("resolver: snapshot entry %d: FQDN longer than %d", i, snapshotMaxFQDN)
		}
		if len(se.Servers) > snapshotMaxServers {
			return fmt.Errorf("resolver: snapshot entry %d: %d servers exceeds %d", i, len(se.Servers), snapshotMaxServers)
		}
		if err := writeUvarint(uint64(len(se.FQDN))); err != nil {
			return err
		}
		if _, err := bw.WriteString(se.FQDN); err != nil {
			return err
		}
		if err := writeUvarint(uint64(se.At)); err != nil {
			return err
		}
		used := byte(0)
		if se.Used {
			used = 1
		}
		if err := bw.WriteByte(used); err != nil {
			return err
		}
		if err := writeAddr(se.Client); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(se.Servers))); err != nil {
			return err
		}
		for _, s := range se.Servers {
			if err := writeAddr(s); err != nil {
				return err
			}
		}
	}
	// Trailer: a redundant version byte under the CRC, then the CRC over
	// everything before it (magic, body, version byte).
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	_, err := w.Write(sum[:])
	return err
}

// ErrBadSnapshot reports a checkpoint stream that is not a resolver
// snapshot at all (wrong or missing magic).
var ErrBadSnapshot = errors.New("resolver: not a clist snapshot")

// ErrSnapshotCorrupt reports a recognized snapshot that fails integrity
// validation: CRC mismatch, missing trailer, or an inconsistent trailer
// version byte — truncation and bit rot land here.
var ErrSnapshotCorrupt = errors.New("resolver: clist snapshot corrupt")

// ErrSnapshotVersion reports a snapshot written by a newer format version
// than this code understands.
var ErrSnapshotVersion = errors.New("resolver: clist snapshot from a newer version")

// ReadSnapshot parses a stream written by WriteSnapshot. It reads the
// stream fully before parsing (checkpoints are bounded by the Clist size)
// so the version-2 CRC32 trailer validates every byte the parser will
// see; version-1 streams (no trailer) are still accepted. Failures map to
// ErrBadSnapshot (not a snapshot), ErrSnapshotCorrupt (integrity), or
// ErrSnapshotVersion (future format).
func ReadSnapshot(r io.Reader) ([]SnapshotEntry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if len(data) < len(snapshotMagicPrefix)+1 || string(data[:len(snapshotMagicPrefix)]) != snapshotMagicPrefix {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	body := data[len(snapshotMagicPrefix)+1:]
	switch ver := data[len(snapshotMagicPrefix)]; {
	case ver == 1:
		// Legacy trailer-less framing: parse as written.
	case ver == snapshotVersion:
		if len(body) < snapshotTrailerLen {
			return nil, fmt.Errorf("%w: missing trailer", ErrSnapshotCorrupt)
		}
		want := binary.LittleEndian.Uint32(data[len(data)-4:])
		if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != want {
			return nil, fmt.Errorf("%w: checksum %08x, want %08x", ErrSnapshotCorrupt, got, want)
		}
		if tv := data[len(data)-snapshotTrailerLen]; tv != snapshotVersion {
			return nil, fmt.Errorf("%w: trailer version %d", ErrSnapshotCorrupt, tv)
		}
		body = body[:len(body)-snapshotTrailerLen]
	default:
		return nil, fmt.Errorf("%w: version %d (this build reads <= %d)", ErrSnapshotVersion, ver, snapshotVersion)
	}
	return readSnapshotBody(body)
}

// readSnapshotBody parses the entry framing shared by every format
// version (everything between the magic and the optional trailer),
// straight from body. A first pass validates every entry and counts its
// servers, so the second allocates the entries and one server array
// shared by all of them, once and at their exact size, and a header that
// lies about the count allocates nothing. Each distinct FQDN becomes one
// string that all its entries share.
func readSnapshotBody(body []byte) ([]SnapshotEntry, error) {
	c := &snapshotCursor{b: body}
	count, err := binary.ReadUvarint(c)
	if err != nil {
		return nil, fmt.Errorf("resolver: snapshot count: %w", err)
	}
	start, nsrv := c.b, 0
	var se SnapshotEntry
	for i := range count {
		_, k, err := c.entry(&se, nil)
		if err != nil {
			return nil, fmt.Errorf("resolver: snapshot entry %d: %w", i, err)
		}
		nsrv += k
	}
	entries := make([]SnapshotEntry, count)
	servers := make([]netip.Addr, nsrv)
	names := make(map[string]string)
	c.b = start
	for i := range entries {
		se := &entries[i]
		fqdn, k, _ := c.entry(se, servers)
		se.Servers, servers = servers[:k:k], servers[k:]
		name, ok := names[string(fqdn)]
		if !ok {
			name = string(fqdn)
			names[name] = name
		}
		se.FQDN = name
	}
	return entries, nil
}

// snapshotCursor reads a snapshot body in place. Its failures are the
// ones a bufio.Reader over the same bytes gives: io.EOF when a field
// starts at the end, io.ErrUnexpectedEOF when one is cut short.
type snapshotCursor struct{ b []byte }

// ReadByte implements io.ByteReader, so binary.ReadUvarint reads from it.
func (c *snapshotCursor) ReadByte() (byte, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

// next returns the next n bytes, aliasing the body.
func (c *snapshotCursor) next(n int) ([]byte, error) {
	switch {
	case n == 0:
		return nil, nil
	case len(c.b) == 0:
		return nil, io.EOF
	case len(c.b) < n:
		return nil, io.ErrUnexpectedEOF
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v, nil
}

// addr reads one length-prefixed address.
func (c *snapshotCursor) addr() (netip.Addr, error) {
	n, err := c.ReadByte()
	if err != nil {
		return netip.Addr{}, err
	}
	if n != 4 && n != 16 {
		return netip.Addr{}, fmt.Errorf("address length %d", n)
	}
	b, err := c.next(int(n))
	if err != nil {
		return netip.Addr{}, err
	}
	if n == 4 {
		return netip.AddrFrom4([4]byte(b)), nil
	}
	return netip.AddrFrom16([16]byte(b)), nil
}

// entry decodes one entry into se, except for two fields: it returns the
// FQDN's bytes, aliasing the body, and the number of servers, which it
// stores in servers unless servers is nil (the validating pass).
func (c *snapshotCursor) entry(se *SnapshotEntry, servers []netip.Addr) (fqdn []byte, nsrv int, err error) {
	flen, err := binary.ReadUvarint(c)
	if err != nil {
		return nil, 0, err
	}
	if flen > snapshotMaxFQDN {
		return nil, 0, fmt.Errorf("FQDN length %d", flen)
	}
	if fqdn, err = c.next(int(flen)); err != nil {
		return nil, 0, err
	}
	at, err := binary.ReadUvarint(c)
	if err != nil {
		return nil, 0, err
	}
	used, err := c.ReadByte()
	if err != nil {
		return nil, 0, err
	}
	se.At, se.Used = time.Duration(at), used != 0
	if se.Client, err = c.addr(); err != nil {
		return nil, 0, fmt.Errorf("client: %w", err)
	}
	n, err := binary.ReadUvarint(c)
	if err != nil {
		return nil, 0, err
	}
	if n > snapshotMaxServers {
		return nil, 0, fmt.Errorf("%d servers", n)
	}
	for j := range int(n) {
		a, err := c.addr()
		if err != nil {
			return nil, 0, fmt.Errorf("server %d: %w", j, err)
		}
		if servers != nil {
			servers[j] = a
		}
	}
	return fqdn, int(n), nil
}
