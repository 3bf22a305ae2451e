// Package netio implements packet transport for the pipeline: the classic
// libpcap file format (read and write) and in-memory packet sources. The
// sniffer consumes any PacketSource, so traces can be replayed from disk or
// streamed straight out of the synthesizer without temporary files.
package netio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Packet is one captured frame plus its capture timestamp, expressed as an
// offset from the trace start (the pipeline runs on a virtual clock).
type Packet struct {
	// Timestamp is the capture time relative to trace start.
	Timestamp time.Duration
	// Data is the raw Ethernet frame.
	Data []byte
}

// PacketSource yields packets in capture order. Next returns io.EOF when the
// source is exhausted. The returned packet's Data may be reused by the next
// call to Next; copy before retaining.
type PacketSource interface {
	Next() (Packet, error)
}

// BlockSource is the optional bulk extension of PacketSource: ReadBlock
// frames up to len(dst) packets in one call, so a reader stage pays the
// per-call overhead (interface dispatch, header decode setup, buffered-IO
// bookkeeping) once per block instead of once per packet. It returns the
// number of packets framed; dst[:n] is valid even when err is non-nil
// (io.EOF after the final partial block, a decode error mid-block). All
// Data slices alias storage owned by the source, valid only until the next
// ReadBlock or Next call.
type BlockSource interface {
	ReadBlock(dst []Packet) (n int, err error)
}

// Classic pcap constants (little-endian variant written by this package).
const (
	pcapMagicLE     = 0xa1b2c3d4 // microsecond timestamps, writer-native order
	pcapMagicBE     = 0xd4c3b2a1 // byte-swapped file
	pcapMagicNanoLE = 0xa1b23c4d
	pcapMagicNanoBE = 0x4d3cb2a1
	pcapVersionMaj  = 2
	pcapVersionMin  = 4
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet = 1
	// DefaultSnapLen mirrors tcpdump's modern default.
	DefaultSnapLen = 262144
)

// ErrBadMagic reports a file that does not start with a pcap magic number.
var ErrBadMagic = errors.New("netio: not a pcap file")

// Writer writes a classic pcap file (little-endian, microsecond resolution,
// Ethernet link type).
type Writer struct {
	w       *bufio.Writer
	started bool
	scratch [16]byte
	// Packets counts records written.
	Packets uint64
}

// NewWriter wraps w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (w *Writer) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicLE)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMaj)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMin)
	// thiszone=0, sigfigs=0
	binary.LittleEndian.PutUint32(hdr[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	_, err := w.w.Write(hdr[:])
	return err
}

// WritePacket appends one record. Timestamps must be non-decreasing for the
// file to be a faithful capture, but this is not enforced.
func (w *Writer) WritePacket(p Packet) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	usec := p.Timestamp.Microseconds()
	binary.LittleEndian.PutUint32(w.scratch[0:4], uint32(usec/1e6))
	binary.LittleEndian.PutUint32(w.scratch[4:8], uint32(usec%1e6))
	binary.LittleEndian.PutUint32(w.scratch[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(w.scratch[12:16], uint32(len(p.Data)))
	if _, err := w.w.Write(w.scratch[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(p.Data); err != nil {
		return err
	}
	w.Packets++
	return nil
}

// Flush writes any buffered data, emitting the header even for empty files.
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

// Reader reads a classic pcap file in either byte order and either timestamp
// resolution. It implements PacketSource.
type Reader struct {
	r      *bufio.Reader
	order  binary.ByteOrder
	nanos  bool
	buf    []byte
	snap   uint32
	link   uint32
	epoch  int64 // first packet's absolute seconds, so Timestamp is an offset
	hasT0  bool
	t0frac int64
	// block is the ReadBlock arena: every frame of one block back to back.
	// offs records each frame's (offset, length) pair so Data slices can be
	// fixed up after the arena stops growing.
	block []byte
	offs  []uint32
}

// NewReader parses the global header of a pcap stream.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netio: reading pcap header: %w", err)
	}
	rd := &Reader{r: br}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	switch magic {
	case pcapMagicLE:
		rd.order = binary.LittleEndian
	case pcapMagicNanoLE:
		rd.order, rd.nanos = binary.LittleEndian, true
	case pcapMagicBE:
		rd.order = binary.BigEndian
	case pcapMagicNanoBE:
		rd.order, rd.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("%w: magic %#08x", ErrBadMagic, magic)
	}
	rd.snap = rd.order.Uint32(hdr[16:20])
	rd.link = rd.order.Uint32(hdr[20:24])
	if rd.link != LinkTypeEthernet {
		return nil, fmt.Errorf("netio: unsupported link type %d", rd.link)
	}
	return rd, nil
}

// readRecordHeader reads and validates one 16-byte record header,
// returning the packet timestamp (relative to the trace epoch) and the
// captured length. err == io.EOF marks a clean end of stream.
func (r *Reader) readRecordHeader() (ts time.Duration, incl uint32, err error) {
	var rec [16]byte
	if _, err := io.ReadFull(r.r, rec[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, fmt.Errorf("netio: reading record header: %w", err)
	}
	sec := int64(r.order.Uint32(rec[0:4]))
	frac := int64(r.order.Uint32(rec[4:8]))
	incl = r.order.Uint32(rec[8:12])
	if incl > r.snap+65536 {
		return 0, 0, fmt.Errorf("netio: implausible record length %d", incl)
	}
	if !r.hasT0 {
		r.epoch, r.t0frac, r.hasT0 = sec, frac, true
	}
	if r.nanos {
		ts = time.Duration(sec-r.epoch)*time.Second + time.Duration(frac-r.t0frac)*time.Nanosecond
	} else {
		ts = time.Duration(sec-r.epoch)*time.Second + time.Duration(frac-r.t0frac)*time.Microsecond
	}
	return ts, incl, nil
}

// Next returns the next packet. Data aliases an internal buffer valid until
// the following call.
func (r *Reader) Next() (Packet, error) {
	ts, incl, err := r.readRecordHeader()
	if err != nil {
		return Packet{}, err
	}
	if cap(r.buf) < int(incl) {
		r.buf = make([]byte, incl)
	}
	r.buf = r.buf[:incl]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return Packet{}, fmt.Errorf("netio: reading record body: %w", err)
	}
	return Packet{Timestamp: ts, Data: r.buf}, nil
}

// ReadBlock implements BlockSource: it frames up to len(dst) packets into
// one reusable arena, so the per-packet cost of the reader stage collapses
// to a header decode and a copy. dst[:n] stays valid until the next
// ReadBlock or Next call.
func (r *Reader) ReadBlock(dst []Packet) (int, error) {
	r.block = r.block[:0]
	r.offs = r.offs[:0]
	n := 0
	for n < len(dst) {
		ts, incl, err := r.readRecordHeader()
		if err != nil {
			r.fixupBlock(dst, n)
			return n, err
		}
		off := len(r.block)
		need := off + int(incl)
		if cap(r.block) < need {
			grown := make([]byte, off, max(need, 2*cap(r.block)))
			copy(grown, r.block)
			r.block = grown
		}
		r.block = r.block[:need]
		if _, err := io.ReadFull(r.r, r.block[off:need]); err != nil {
			r.fixupBlock(dst, n)
			return n, fmt.Errorf("netio: reading record body: %w", err)
		}
		dst[n] = Packet{Timestamp: ts}
		r.offs = append(r.offs, uint32(off), incl)
		n++
	}
	r.fixupBlock(dst, n)
	return n, nil
}

// fixupBlock points the block's Data slices into the arena once it has
// stopped growing (growth reallocates, which would strand earlier slices).
func (r *Reader) fixupBlock(dst []Packet, n int) {
	for i := 0; i < n; i++ {
		off, ln := r.offs[2*i], r.offs[2*i+1]
		dst[i].Data = r.block[off : off+ln]
	}
}
