package netio

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"
)

// writeTestPcap builds an in-memory pcap with n packets of varying sizes
// and returns the encoded bytes plus the packets written.
func writeTestPcap(t *testing.T, n int) ([]byte, []Packet) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var pkts []Packet
	for i := 0; i < n; i++ {
		data := make([]byte, 14+i%97)
		for j := range data {
			data[j] = byte(i + j)
		}
		p := Packet{Timestamp: time.Duration(i) * time.Millisecond, Data: data}
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), pkts
}

// TestReadBlockMatchesNext replays the same capture through Next and
// ReadBlock (at several block sizes, including ones that leave a partial
// final block) and requires identical packet sequences.
func TestReadBlockMatchesNext(t *testing.T) {
	raw, want := writeTestPcap(t, 103)
	for _, blockLen := range []int{1, 7, 64, 103, 256} {
		t.Run(fmt.Sprintf("block=%d", blockLen), func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]Packet, blockLen)
			var got []Packet
			for {
				n, err := r.ReadBlock(dst)
				for i := 0; i < n; i++ {
					// Copy: the arena is reused on the next call.
					got = append(got, Packet{
						Timestamp: dst[i].Timestamp,
						Data:      append([]byte(nil), dst[i].Data...),
					})
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("read %d packets, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Timestamp != want[i].Timestamp {
					t.Fatalf("packet %d: timestamp %v, want %v", i, got[i].Timestamp, want[i].Timestamp)
				}
				if !bytes.Equal(got[i].Data, want[i].Data) {
					t.Fatalf("packet %d: data mismatch", i)
				}
			}
		})
	}
}

// TestReadBlockArenaStableWithinBlock verifies the documented aliasing
// contract: every Data slice of one block stays intact until the next
// call, even though the arena grows while the block fills.
func TestReadBlockArenaStableWithinBlock(t *testing.T) {
	raw, want := writeTestPcap(t, 64)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Packet, 64)
	n, err := r.ReadBlock(dst)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("read %d packets, want 64", n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(dst[i].Data, want[i].Data) {
			t.Fatalf("packet %d: data corrupted after later packets were framed", i)
		}
	}
}

// TestReadBlockTruncatedBody returns the packets framed before the
// truncation alongside the error.
func TestReadBlockTruncatedBody(t *testing.T) {
	raw, _ := writeTestPcap(t, 8)
	raw = raw[:len(raw)-5] // cut into the final record's body
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Packet, 16)
	n, err := r.ReadBlock(dst)
	if err == nil || err == io.EOF {
		t.Fatalf("want a body-read error, got n=%d err=%v", n, err)
	}
	if n != 7 {
		t.Fatalf("framed %d whole packets before the truncation, want 7", n)
	}
}

// TestSliceSourceReadBlock checks the zero-copy in-memory replay (one
// LoopSource pass), including the n<len(dst) tail and EOF-after-drain.
func TestSliceSourceReadBlock(t *testing.T) {
	pkts := make([]Packet, 10)
	for i := range pkts {
		pkts[i] = Packet{Timestamp: time.Duration(i)}
	}
	s := NewLoopSource(pkts, 0, 1)
	dst := make([]Packet, 4)
	var total int
	for {
		n, err := s.ReadBlock(dst)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if int(dst[i].Timestamp) != total+i {
				t.Fatalf("packet %d out of order", total+i)
			}
		}
		total += n
	}
	if total != len(pkts) {
		t.Fatalf("read %d packets, want %d", total, len(pkts))
	}
}

// TestChanSourceReadBlock drains a closed channel through block reads.
func TestChanSourceReadBlock(t *testing.T) {
	ch := make(chan Packet, 16)
	for i := 0; i < 11; i++ {
		ch <- Packet{Timestamp: time.Duration(i)}
	}
	close(ch)
	src := &ChanPacketSource{C: ch}
	dst := make([]Packet, 4)
	var total int
	for {
		n, err := src.ReadBlock(dst)
		for i := 0; i < n; i++ {
			if int(dst[i].Timestamp) != total+i {
				t.Fatalf("packet %d out of order", total+i)
			}
		}
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != 11 {
		t.Fatalf("read %d packets, want 11", total)
	}
}
