package names

import (
	"fmt"
	"testing"
)

// fill files n fresh names "prefix-i" and returns their IDs.
func fill(t *Table, prefix string, n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = t.Intern(fmt.Appendf(nil, "%s-%d", prefix, i))
	}
	return ids
}

// TestInternFilesOnce: a name is filed once, from bytes or from a string,
// under one ID that spells it; "" is ID 0; filing a held name allocates
// nothing.
func TestInternFilesOnce(t *testing.T) {
	tb := New()
	a := tb.Intern([]byte("a.example.com"))
	if a == 0 || tb.Str(a) != "a.example.com" {
		t.Fatalf("Intern filed a.example.com as %d (%q)", a, tb.Str(a))
	}
	if id := tb.ID("a.example.com"); id != a {
		t.Fatalf("ID of a filed name = %d, want %d", id, a)
	}
	if tb.Intern(nil) != 0 || tb.ID("") != 0 || tb.Str(0) != "" {
		t.Fatal(`"" is not ID 0`)
	}
	b := []byte("a.example.com")
	if n := testing.AllocsPerRun(100, func() { tb.Intern(b) }); n != 0 {
		t.Fatalf("filing a held name allocates %v", n)
	}
	if tb.End() != 2 {
		t.Fatalf("End = %d, want 2", tb.End())
	}
}

// holdIDs registers a holder on t that keeps the IDs *ids holds.
func holdIDs(t *Table, ids *[]uint32) {
	t.Hold(func(keep func(uint32)) {
		for _, id := range *ids {
			keep(id)
		}
	})
}

// TestSweepKeepsHeld: below Bound names Collect frees nothing; at Bound it
// frees exactly the names no holder keeps, and keeps what every holder
// keeps — a second holder adds to the first, it does not replace it.
func TestSweepKeepsHeld(t *testing.T) {
	tb := New()
	first, second := []uint32{tb.ID("www.kept.example.org")}, []uint32{tb.ID("also.kept.example")}
	holdIDs(tb, &first)
	holdIDs(tb, &second)
	dropped := tb.ID("gone.example.net")
	junk := fill(tb, "junk", Bound-4) // Bound-1 names filed
	tb.Collect()
	if tb.Str(dropped) == "" || tb.Str(junk[0]) == "" || tb.live != Bound-1 {
		t.Fatal("Collect swept below Bound")
	}
	tb.ID("one.more")
	tb.Collect()
	if tb.live != 2 {
		t.Fatalf("%d names filed after the sweep, want 2", tb.live)
	}
	if tb.Str(first[0]) != "www.kept.example.org" || tb.Str(second[0]) != "also.kept.example" {
		t.Fatalf("the sweep lost a held name: %q, %q", tb.Str(first[0]), tb.Str(second[0]))
	}
	for _, id := range append(junk, dropped) {
		if s := tb.Str(id); s != "" {
			t.Fatalf("the sweep kept the unheld %q", s)
		}
	}
}

// TestSweepSpacing: after a sweep that keeps L names the next waits for
// max(Bound, L) more, so a name that comes back is allocated again no
// sooner than under a table wiped every Bound names.
func TestSweepSpacing(t *testing.T) {
	tb := New()
	var kept []uint32
	holdIDs(tb, &kept)
	for _, l := range []int{10, Bound + Bound/2} {
		tb.Reset()
		kept = fill(tb, "kept", l)
		fill(tb, "junk", max(Bound-l, 0))
		tb.Collect() // the first sweep: everything but the kept names goes
		if tb.live != l {
			t.Fatalf("L=%d: %d names after the first sweep", l, tb.live)
		}
		fill(tb, "back", max(Bound, l)-1)
		tb.Collect()
		if tb.live != l+max(Bound, l)-1 {
			t.Fatalf("L=%d: swept again after %d names", l, max(Bound, l)-1)
		}
		tb.ID("last")
		tb.Collect()
		if tb.live != l {
			t.Fatalf("L=%d: no sweep after %d names (%d filed)", l, max(Bound, l), tb.live)
		}
	}
}

// TestFreedIDDerivesOwnSLD: an ID Reset freed and another name reuses
// spells the new name and derives the new name's SLD, not the old one's.
func TestFreedIDDerivesOwnSLD(t *testing.T) {
	tb := New()
	old := tb.ID("a.example.com")
	tb.DeriveSLD(old)
	if got := tb.Str(tb.SLD(old)); got != "example.com" {
		t.Fatalf("SLD = %q", got)
	}
	tb.Reset()
	if id := tb.ID("b.other.org"); id != old {
		t.Fatalf("after Reset the first name took ID %d, want %d", id, old)
	}
	tb.DeriveSLD(old)
	if got := tb.Str(tb.SLD(old)); got != "other.org" {
		t.Fatalf("after Reset, ID %d (%q) derives SLD %q, want other.org", old, tb.Str(old), got)
	}
}

// TestRemap: another table's names, SLDs included, file under the IDs
// Remap returns; a table remaps onto itself as the identity.
func TestRemap(t *testing.T) {
	src, dst := New(), New()
	dst.ID("first.example")
	a, b := src.ID("x.a.example.com"), src.ID("b.example.net")
	src.DeriveSLD(a)
	ids, same := dst.Remap(src, nil)
	if same || dst.Str(ids[a]) != "x.a.example.com" || dst.Str(ids[b]) != "b.example.net" || ids[0] != 0 {
		t.Fatalf("Remap: same %v, a→%q, b→%q, 0→%d", same, dst.Str(ids[a]), dst.Str(ids[b]), ids[0])
	}
	if got := dst.Str(dst.SLD(ids[a])); got != "example.com" {
		t.Fatalf("remapped SLD %q", got)
	}
	if _, same := src.Remap(src, ids); !same {
		t.Fatal("self-Remap is not the identity")
	}
}
