package swiss

import (
	"math/bits"
	"net/netip"
	"testing"
)

// buildGroup packs eight control bytes (lane 0 first) into a group word.
func buildGroup(c [8]uint8) uint64 {
	var g uint64
	for i, b := range c {
		g |= uint64(b) << (8 * i)
	}
	return g
}

func lanesOf(m uint64) []int {
	var out []int
	for ; m != 0; m &= m - 1 {
		out = append(out, firstLane(m))
	}
	return out
}

func TestMatchH2FindsAllTrueMatches(t *testing.T) {
	g := buildGroup([8]uint8{0x11, ctrlEmpty, 0x7F, 0x11, ctrlDeleted, 0x00, 0x11, 0x30})
	m := matchH2(g, 0x11)
	got := map[int]bool{}
	for _, l := range lanesOf(m) {
		got[l] = true
	}
	// Every true match must be present (false positives are allowed by the
	// SWAR trick; absence of a true match is not).
	for _, want := range []int{0, 3, 6} {
		if !got[want] {
			t.Fatalf("lane %d (ctrl 0x11) not matched; mask lanes %v", want, lanesOf(m))
		}
	}
	// Sentinels must never match a full h2.
	if got[1] || got[4] {
		t.Fatalf("sentinel lane matched h2: lanes %v", lanesOf(m))
	}
}

func TestMatchH2NoFalseNegativesExhaustive(t *testing.T) {
	// For every h2 and every lane, a group holding h2 in that lane must
	// report it.
	for h2 := uint8(0); h2 < 0x80; h2++ {
		for lane := 0; lane < groupSize; lane++ {
			g := emptyGroup
			g = withCtrl(g, lane, h2)
			m := matchH2(g, h2)
			found := false
			for _, l := range lanesOf(m) {
				if l == lane {
					found = true
				}
			}
			if !found {
				t.Fatalf("h2=%#x lane=%d missed (mask %#x)", h2, lane, m)
			}
		}
	}
}

func TestMatchEmptyExact(t *testing.T) {
	g := buildGroup([8]uint8{0x11, ctrlEmpty, 0x7F, ctrlDeleted, ctrlEmpty, 0x00, 0x01, ctrlDeleted})
	want := []int{1, 4}
	got := lanesOf(matchEmpty(g))
	if len(got) != len(want) {
		t.Fatalf("empty lanes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("empty lanes = %v, want %v", got, want)
		}
	}
	if n := bits.OnesCount64(matchFree(g)); n != 4 {
		t.Fatalf("free lanes = %d, want 4 (2 empty + 2 deleted)", n)
	}
}

func TestCtrlRoundTrip(t *testing.T) {
	g := emptyGroup
	for lane := 0; lane < groupSize; lane++ {
		c := uint8(lane * 7 % 0x80)
		g = withCtrl(g, lane, c)
		if ctrlAt(g, lane) != c {
			t.Fatalf("lane %d: ctrl = %#x, want %#x", lane, ctrlAt(g, lane), c)
		}
	}
	// Untouched high lanes preserved through low-lane writes.
	g2 := withCtrl(g, 0, ctrlDeleted)
	for lane := 1; lane < groupSize; lane++ {
		if ctrlAt(g2, lane) != ctrlAt(g, lane) {
			t.Fatalf("withCtrl stomped lane %d", lane)
		}
	}
	if isFull(ctrlEmpty) || isFull(ctrlDeleted) || !isFull(0x7F) || !isFull(0) {
		t.Fatal("isFull misclassifies sentinels")
	}
}

func TestHashAddrSpreads(t *testing.T) {
	// Sanity: distinct addresses should not collapse onto one hash. Not a
	// statistical test — just a guard against a degenerate mixer.
	seen := map[uint64]bool{}
	for i := 0; i < 256; i++ {
		a := netip.AddrFrom4([4]byte{10, 0, byte(i >> 4), byte(i)})
		seen[HashAddr(1, a)] = true
	}
	if len(seen) < 250 {
		t.Fatalf("only %d distinct hashes over 256 addresses", len(seen))
	}
	// Equal addresses hash equally regardless of 4 vs 4-in-6 form.
	v4 := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	v6 := netip.AddrFrom16(v4.As16())
	if HashAddr(7, v4) != HashAddr(7, v6) {
		t.Fatal("4 and 4-in-6 forms hash differently")
	}
}
