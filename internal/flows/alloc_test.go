package flows

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/layers"
)

// A packet for a flow the table already tracks — the overwhelmingly common
// case on a busy link — must not allocate.

func TestTableHitZeroAlloc(t *testing.T) {
	tbl := NewTable(Config{OnRecord: func(Record, Handle) {}})
	syn := &layers.Decoded{
		HasIP: true, HasTCP: true,
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("192.0.2.10"),
		Proto: layers.IPProtocolTCP, SrcPort: 40000, DstPort: 443,
		TCPFlags: layers.TCPSyn,
	}
	tbl.Add(syn, 0, nil) // creates the flow
	ack := &layers.Decoded{
		HasIP: true, HasTCP: true,
		SrcIP: syn.SrcIP, DstIP: syn.DstIP,
		Proto: layers.IPProtocolTCP, SrcPort: 40000, DstPort: 443,
		TCPFlags: layers.TCPAck,
	}
	at := 10 * time.Millisecond
	if n := testing.AllocsPerRun(1000, func() {
		tbl.Add(ack, at, nil)
	}); n != 0 {
		t.Fatalf("flow-table hit allocates %v/op, want 0", n)
	}
	if got := tbl.Active(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}
}

// Steady churn — flows opening and closing at a constant rate — must reuse
// recycled flow structs instead of growing the heap, whichever way a flow
// ends: a close segment, the idle sweep, or a dispatcher's expiry command.
// An IPv6 flow's key takes a side cell, which its end must free: each
// measured op churns more flows than a slab chunk holds, so a leaked cell
// shows as a fresh chunk every op.
func TestTableChurnSteadyStateAlloc(t *testing.T) {
	const idle = time.Minute
	for _, fam := range []struct {
		suffix   string
		src, dst netip.Addr
	}{
		{"", netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.0.2.10")},
		{"_ipv6", netip.MustParseAddr("fd00::1"), netip.MustParseAddr("2001:db8::10")},
	} {
		src, dst := fam.src, fam.dst
		for _, tc := range []struct {
			name string
			end  func(tbl *Table, port uint16, at time.Duration)
		}{
			{"rst", func(tbl *Table, port uint16, at time.Duration) {
				rst := &layers.Decoded{HasIP: true, HasTCP: true, SrcIP: src, DstIP: dst,
					Proto: layers.IPProtocolTCP, SrcPort: port, DstPort: 443, TCPFlags: layers.TCPRst}
				tbl.Add(rst, at+time.Millisecond, nil)
			}},
			{"flushidle", func(tbl *Table, _ uint16, at time.Duration) {
				tbl.FlushIdle(at + idle)
			}},
			{"expireflow", func(tbl *Table, port uint16, _ time.Duration) {
				tbl.ExpireFlow(Key{ClientIP: src, ServerIP: dst, ClientPort: port, ServerPort: 443,
					Proto: layers.IPProtocolTCP}, 0)
			}},
		} {
			t.Run(tc.name+fam.suffix, func(t *testing.T) {
				tbl := NewTable(Config{IdleTimeout: idle, DisableAutoSweep: true, OnRecord: func(Record, Handle) {}})
				var now time.Duration
				cycle := func(port uint16) {
					now += 2 * idle
					syn := &layers.Decoded{HasIP: true, HasTCP: true, SrcIP: src, DstIP: dst,
						Proto: layers.IPProtocolTCP, SrcPort: port, DstPort: 443, TCPFlags: layers.TCPSyn}
					tbl.Add(syn, now, nil)
					tc.end(tbl, port, now)
					if tbl.Active() != 0 {
						t.Fatalf("flow on port %d still active after %s", port, tc.name)
					}
				}
				// Warm-up fills the free list and map capacity.
				for p := uint16(1000); p < 1100; p++ {
					cycle(p)
				}
				if n := testing.AllocsPerRun(50, func() {
					for p := range uint16(300) {
						cycle(2000 + p)
					}
				}); n != 0 {
					t.Fatalf("steady flow churn allocates %v per 300 flows, want 0", n)
				}
			})
		}
	}
}
