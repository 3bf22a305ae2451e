package core_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netio"
)

// reusingSource replays frames out of one arena it overwrites on every
// read, like a capture ring: anything that keeps a frame past the next read
// without copying it sees garbage.
type reusingSource struct {
	pkts  []netio.Packet
	next  int
	arena []byte
}

func (s *reusingSource) Next() (netio.Packet, error) {
	var one [1]netio.Packet
	if _, err := s.ReadBlock(one[:]); err != nil {
		return netio.Packet{}, err
	}
	return one[0], nil
}

func (s *reusingSource) ReadBlock(dst []netio.Packet) (int, error) {
	for i := range s.arena {
		s.arena[i] = 0xEE
	}
	s.arena = s.arena[:0]
	n := 0
	for ; n < len(dst) && s.next < len(s.pkts); n++ {
		p := s.pkts[s.next]
		s.next++
		off := len(s.arena)
		s.arena = append(s.arena, p.Data...)
		dst[n] = netio.Packet{Timestamp: p.Timestamp, Data: s.arena[off:]}
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// nextOnly hides everything but Next.
type nextOnly struct{ src netio.PacketSource }

func (s nextOnly) Next() (netio.Packet, error) { return s.src.Next() }

// spyReader records the blocks the pcap reader hands out. It embeds the
// reader, so Next and ReadBlock stay on offer: a wrapper that reads through
// those instead of ReadBlockRef is caught returning blocks of its own.
type spyReader struct {
	*netio.Reader
	blocks []*netio.Block
}

func (s *spyReader) ReadBlockRef(dst []netio.Packet) (int, *netio.Block, error) {
	n, blk, err := s.Reader.ReadBlockRef(dst)
	if blk != nil {
		s.blocks = append(s.blocks, blk)
	}
	return n, blk, err
}

// TestWrappersPreserveSourceCapabilities is the one-contract table: every
// source wrapper over every kind of inner source must deliver byte-identical
// packets at the cheapest copy count the inner source allows — none for a
// stable source (nil blocks, frames aliasing the source's storage), the pcap
// reader's own blocks for a reader (no second copy), and exactly one pooled
// copy per read otherwise — and must leak no block. Not parallel: it reads
// the shared default pool's counters.
func TestWrappersPreserveSourceCapabilities(t *testing.T) {
	// Three reads at 16 packets per block. Kept small: the test holds every
	// block until the stream ends, one per packet for a Next-only source.
	pkts := make([]netio.Packet, 40)
	var pcap bytes.Buffer
	w := netio.NewWriter(&pcap)
	for i := range pkts {
		pkts[i] = netio.Packet{
			Timestamp: time.Duration(i) * time.Microsecond,
			Data:      bytes.Repeat([]byte{byte(i)}, 60+i%40),
		}
		if err := w.WritePacket(pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	type copies int
	const (
		zeroCopy copies = iota // nil blocks, frames alias the source
		native                 // the inner source's own blocks
		pooled                 // one pooled copy per read
	)
	var spy *spyReader
	inners := []struct {
		name string
		open func() netio.PacketSource
		want copies
	}{
		{"stable-slice", func() netio.PacketSource { return netio.NewLoopSource(pkts, 0, 1) }, zeroCopy},
		{"pcap-reader", func() netio.PacketSource {
			r, err := netio.NewReader(bytes.NewReader(pcap.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			spy = &spyReader{Reader: r}
			return spy
		}, native},
		{"borrowed-blocks", func() netio.PacketSource { return &reusingSource{pkts: pkts} }, pooled},
		{"next-only", func() netio.PacketSource { return nextOnly{&reusingSource{pkts: pkts}} }, pooled},
	}

	// Core-internal wrappers sit past the engine's edge adapter; the
	// user-facing ones take a PacketSource and adapt it themselves.
	type wrapper struct {
		name string
		wrap func(netio.PacketSource) netio.BlockRefSource
	}
	wrappers := []wrapper{
		{"faults.Source", func(src netio.PacketSource) netio.BlockRefSource {
			return newFaultSource(src, faultSourceConfig{})
		}},
		{"netio.PacedSource", func(src netio.PacketSource) netio.BlockRefSource {
			return netio.NewPacedSource(src, 1e9)
		}},
	}
	for _, w := range core.InternalWrappersForTest {
		wrappers = append(wrappers, wrapper{w.Name, func(src netio.PacketSource) netio.BlockRefSource {
			return w.Wrap(netio.NewRefAdapter(src, nil, true))
		}})
	}

	for _, w := range wrappers {
		for _, inner := range inners {
			t.Run(fmt.Sprintf("%s/%s", w.name, inner.name), func(t *testing.T) {
				before := netio.DefaultBlockPool().Stats()
				src := w.wrap(inner.open())

				// Hold every block until the stream ends, so a frame that
				// was borrowed rather than copied has been overwritten by
				// the time it is compared.
				var (
					got    []netio.Packet
					blocks []*netio.Block
					reads  int
				)
				dst := make([]netio.Packet, 16)
				for {
					n, blk, err := src.ReadBlockRef(dst)
					if n > 0 {
						reads++
						got = append(got, dst[:n]...)
						if (blk == nil) != (inner.want == zeroCopy) {
							t.Fatalf("read %d: block %v, want nil only for a stable source", reads, blk)
						}
					}
					if blk != nil {
						blocks = append(blocks, blk)
					}
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
				}

				if len(got) != len(pkts) {
					t.Fatalf("delivered %d packets, want %d", len(got), len(pkts))
				}
				for i := range got {
					if got[i].Timestamp != pkts[i].Timestamp || !bytes.Equal(got[i].Data, pkts[i].Data) {
						t.Fatalf("packet %d differs through the wrapper", i)
					}
					if inner.want == zeroCopy && &got[i].Data[0] != &pkts[i].Data[0] {
						t.Fatalf("packet %d: stable frame was copied", i)
					}
				}
				gets := netio.DefaultBlockPool().Stats().Gets - before.Gets
				switch inner.want {
				case zeroCopy:
					if gets != 0 {
						t.Errorf("stable source cost %d pool gets, want 0", gets)
					}
				case native:
					if len(blocks) != len(spy.blocks) {
						t.Fatalf("%d blocks delivered, the reader produced %d", len(blocks), len(spy.blocks))
					}
					for i := range blocks {
						if blocks[i] != spy.blocks[i] {
							t.Fatalf("block %d is not the reader's own: frames were copied a second time", i)
						}
					}
				case pooled:
					if int(gets) != reads {
						t.Errorf("%d pool gets over %d reads, want one pooled copy per read", gets, reads)
					}
				}

				for _, blk := range blocks {
					blk.Release(1)
				}
				after := netio.DefaultBlockPool().Stats()
				if dg, dr := after.Gets-before.Gets, after.Retired-before.Retired; dg != dr {
					t.Errorf("%d gets vs %d retires — leaked blocks", dg, dr)
				}
			})
		}
	}
}
