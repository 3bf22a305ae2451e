// Package orgdb maps server IP addresses to the organization operating them
// — the role MaxMind/whois data plays in the paper (§4.2, §5). The
// synthesizer emits the table alongside each trace; the analytics join
// labeled flows against it for content discovery (Table 5), the CDN time
// series (Fig. 5), and the org × CDN heat maps (Fig. 9).
//
// Lookups use longest-prefix match over a sorted prefix table, the same
// discipline as a routing table, so overlapping allocations (a CDN block
// carved out of a carrier block) resolve to the most specific owner.
package orgdb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"
)

// Entry is one prefix allocation.
type Entry struct {
	Prefix netip.Prefix
	Org    string
}

// DB is an immutable prefix → organization table. Build with New.
type DB struct {
	// entries sorted by (address, prefix length) for binary search.
	entries []Entry
}

// ErrBadFormat reports an unparsable text table.
var ErrBadFormat = errors.New("orgdb: bad format")

// New builds a database from entries. Prefixes are normalized to their
// masked form; duplicate (prefix, org) pairs collapse. The input slice is
// not retained.
func New(entries []Entry) *DB {
	db := &DB{entries: make([]Entry, 0, len(entries))}
	seen := make(map[netip.Prefix]string, len(entries))
	for _, e := range entries {
		p := e.Prefix.Masked()
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = e.Org
		db.entries = append(db.entries, Entry{Prefix: p, Org: e.Org})
	}
	sort.Slice(db.entries, func(i, j int) bool {
		a, b := db.entries[i].Prefix, db.entries[j].Prefix
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c < 0
		}
		return a.Bits() < b.Bits()
	})
	return db
}

// Lookup returns the organization owning addr via longest-prefix match.
// ok is false when no prefix covers addr. IPv4 prefixes shorter than /8 are
// not supported (real allocations are /8 or longer).
func (db *DB) Lookup(addr netip.Addr) (org string, ok bool) {
	// Binary search to the insertion point, then scan left: any covering
	// prefix has a base address <= addr. Candidate prefixes appear before
	// the insertion point; the first (longest-bits) match wins among those
	// that contain addr. We track the best (longest) match while scanning
	// until base addresses fall below addr's possible coverage.
	i := sort.Search(len(db.entries), func(i int) bool {
		return db.entries[i].Prefix.Addr().Compare(addr) > 0
	})
	best := -1
	for j := i - 1; j >= 0; j-- {
		e := db.entries[j]
		if e.Prefix.Contains(addr) {
			if best == -1 || e.Prefix.Bits() > db.entries[best].Prefix.Bits() {
				best = j
			}
			// A match at /b means any longer (more specific) prefix would
			// sort closer to addr, i.e. at an index >= j; since we scan
			// right-to-left the first few matches include the most
			// specific. Keep scanning while base addresses could still
			// cover addr.
		}
		// Stop once even a /0 rooted at this base could not reach addr's
		// family, or we crossed address families.
		if e.Prefix.Addr().Is4() != addr.Is4() {
			break
		}
		// Heuristic bound: prefixes are at least /8 in practice; stop when
		// the base is more than a /8 away.
		if addrDelta(addr, e.Prefix.Addr()) > 1<<24 && addr.Is4() {
			break
		}
	}
	if best == -1 {
		return "", false
	}
	return db.entries[best].Org, true
}

// addrDelta returns an approximate distance between two IPv4 addresses.
func addrDelta(a, b netip.Addr) uint64 {
	if !a.Is4() || !b.Is4() {
		return 1 << 63
	}
	av := a.As4()
	bv := b.As4()
	au := uint64(av[0])<<24 | uint64(av[1])<<16 | uint64(av[2])<<8 | uint64(av[3])
	bu := uint64(bv[0])<<24 | uint64(bv[1])<<16 | uint64(bv[2])<<8 | uint64(bv[3])
	if au > bu {
		return au - bu
	}
	return bu - au
}

// WriteText serializes the table as "prefix org" lines.
func (db *DB) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range db.entries {
		if _, err := fmt.Fprintf(bw, "%s %s\n", e.Prefix, e.Org); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses a table produced by WriteText. Blank lines and lines
// starting with '#' are ignored.
func ReadText(r io.Reader) (*DB, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadFormat, lineNo, line)
		}
		p, err := netip.ParsePrefix(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
		}
		entries = append(entries, Entry{Prefix: p, Org: strings.Join(fields[1:], " ")})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(entries), nil
}
