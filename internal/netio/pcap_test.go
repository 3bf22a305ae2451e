package netio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pkts := []Packet{
		{Timestamp: 0, Data: []byte{1, 2, 3}},
		{Timestamp: 1500 * time.Millisecond, Data: []byte{4, 5, 6, 7}},
		{Timestamp: 3 * time.Second, Data: []byte{8}},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Packets != 3 {
		t.Fatalf("Packets = %d", w.Packets)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.SnapLen() != DefaultSnapLen {
		t.Fatalf("snaplen = %d", r.SnapLen())
	}
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("packet %d data = %v, want %v", i, got.Data, want.Data)
		}
		if got.Timestamp != want.Timestamp {
			t.Fatalf("packet %d ts = %v, want %v", i, got.Timestamp, want.Timestamp)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestEmptyFileHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("header length = %d", buf.Len())
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReaderBadMagic(t *testing.T) {
	_, err := NewReader(bytes.NewReader(make([]byte, 24)))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 10))); err == nil {
		t.Fatal("expected error")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(Packet{Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2] // chop the body
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("expected error for truncated body")
	}
}

func TestReaderBigEndianFile(t *testing.T) {
	// Hand-build a big-endian microsecond pcap with one record.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], pcapMagicLE) // written BE == read as swapped
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 100) // sec
	binary.BigEndian.PutUint32(rec[4:8], 250000)
	binary.BigEndian.PutUint32(rec[8:12], 2)
	binary.BigEndian.PutUint32(rec[12:16], 2)
	buf.Write(rec)
	buf.Write([]byte{0xaa, 0xbb})

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Timestamp != 0 { // first packet anchors the offset clock
		t.Fatalf("ts = %v", p.Timestamp)
	}
	if !bytes.Equal(p.Data, []byte{0xaa, 0xbb}) {
		t.Fatalf("data = %v", p.Data)
	}
}

func TestReaderNanoResolution(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicNanoLE)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	buf.Write(hdr)
	writeRec := func(sec, nsec, n uint32, body []byte) {
		rec := make([]byte, 16)
		binary.LittleEndian.PutUint32(rec[0:4], sec)
		binary.LittleEndian.PutUint32(rec[4:8], nsec)
		binary.LittleEndian.PutUint32(rec[8:12], n)
		binary.LittleEndian.PutUint32(rec[12:16], n)
		buf.Write(rec)
		buf.Write(body)
	}
	writeRec(10, 0, 1, []byte{1})
	writeRec(10, 500, 1, []byte{2})

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	p2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p2.Timestamp != 500*time.Nanosecond {
		t.Fatalf("ts = %v", p2.Timestamp)
	}
}

func TestReaderUnsupportedLinkType(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagicLE)
	binary.LittleEndian.PutUint32(hdr[20:24], 101) // RAW IP
	if _, err := NewReader(bytes.NewReader(hdr)); err == nil {
		t.Fatal("expected error for non-Ethernet link type")
	}
}

// TestLoopSourceDataStable: one pass replays the slice in order, then EOF,
// and every frame aliases the backing slice, whether read by Next or by
// ReadBlockRef, which vouches for that storage with a nil block.
func TestLoopSourceDataStable(t *testing.T) {
	pkts := []Packet{{Data: []byte{1}}, {Data: []byte{2}}}
	s := NewLoopSource(pkts, 0, 1)
	for i := range pkts {
		p, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if &p.Data[0] != &pkts[i].Data[0] {
			t.Fatalf("packet %d does not alias the backing slice", i)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	dst := make([]Packet, 4)
	n, blk, err := NewLoopSource(pkts, 0, 1).ReadBlockRef(dst)
	if n != len(pkts) || blk != nil || err != nil {
		t.Fatalf("ReadBlockRef = (%d, %v, %v), want (%d, nil, nil)", n, blk, err, len(pkts))
	}
	for i := range pkts {
		if &dst[i].Data[0] != &pkts[i].Data[0] {
			t.Fatalf("block read: packet %d does not alias the backing slice", i)
		}
	}
}

func TestChanPacketSource(t *testing.T) {
	ch := make(chan Packet, 2)
	ch <- Packet{Data: []byte{9}}
	close(ch)
	s := &ChanPacketSource{C: ch}
	p, err := s.Next()
	if err != nil || p.Data[0] != 9 {
		t.Fatalf("got %v %v", p, err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestQuickRoundTripArbitraryPayloads(t *testing.T) {
	f := func(bodies [][]byte) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i, body := range bodies {
			if len(body) > 2000 {
				body = body[:2000]
			}
			if err := w.WritePacket(Packet{Timestamp: time.Duration(i) * time.Millisecond, Data: body}); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		for i, body := range bodies {
			if len(body) > 2000 {
				body = body[:2000]
			}
			p, err := r.Next()
			if err != nil {
				return false
			}
			if !bytes.Equal(p.Data, body) || p.Timestamp != time.Duration(i)*time.Millisecond {
				return false
			}
		}
		_, err = r.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// SnapLen returns the capture snapshot length from the file header.
func (r *Reader) SnapLen() uint32 { return r.snap }

// ChanPacketSource adapts a channel of packets to PacketSource; the producer
// closes the channel at end of trace.
type ChanPacketSource struct {
	C <-chan Packet
}

// Next implements PacketSource.
func (c *ChanPacketSource) Next() (Packet, error) {
	p, ok := <-c.C
	if !ok {
		return Packet{}, io.EOF
	}
	return p, nil
}

// ReadBlock implements BlockSource: one blocking receive, then whatever is
// already queued, so a fast producer amortizes channel wakeups per block.
// Note the per-packet Data ownership is the producer's: packets from a
// channel are not invalidated by subsequent reads.
func (c *ChanPacketSource) ReadBlock(dst []Packet) (int, error) {
	p, ok := <-c.C
	if !ok {
		return 0, io.EOF
	}
	dst[0] = p
	n := 1
	for n < len(dst) {
		select {
		case p, ok := <-c.C:
			if !ok {
				return n, io.EOF
			}
			dst[n] = p
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}
