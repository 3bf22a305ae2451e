package flowdb

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/flows"
)

// wflow builds a minimal labeled flow ending at end.
func wflow(end time.Duration, label string) LabeledFlow {
	return LabeledFlow{
		Record:  flows.Record{Start: end - time.Second, End: end},
		Label:   label,
		Labeled: label != "",
	}
}

func TestWindowedRotation(t *testing.T) {
	var got []Window
	var counts []int
	w := NewWindowed(WindowConfig{
		Width: time.Minute,
		Flush: func(win Window) error {
			got = append(got, win)
			counts = append(counts, win.DB.Len())
			return nil
		},
	})
	// Two flows in window [0,1m), one in [1m,2m), one in [3m,4m) after a gap.
	for _, f := range []LabeledFlow{
		wflow(10*time.Second, "a.example.com"),
		wflow(50*time.Second, "b.example.com"),
		wflow(70*time.Second, "c.example.com"),
		wflow(200*time.Second, "d.example.com"),
	} {
		if err := w.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("flushed %d windows, want 3", len(got))
	}
	wantBounds := [][2]time.Duration{
		{0, time.Minute},
		{time.Minute, 2 * time.Minute},
		{3 * time.Minute, 4 * time.Minute},
	}
	wantCounts := []int{2, 1, 1}
	for i, win := range got {
		if win.Index != i {
			t.Errorf("window %d: index %d", i, win.Index)
		}
		if win.Start != wantBounds[i][0] || win.End != wantBounds[i][1] {
			t.Errorf("window %d: bounds [%v,%v), want [%v,%v)", i, win.Start, win.End, wantBounds[i][0], wantBounds[i][1])
		}
		if counts[i] != wantCounts[i] {
			t.Errorf("window %d: %d flows, want %d", i, counts[i], wantCounts[i])
		}
	}
	if w.WindowsFlushed() != 3 {
		t.Errorf("WindowsFlushed = %d, want 3", w.WindowsFlushed())
	}
}

// TestWindowedObserveHook: the pre-discard observer sees every flow that
// ever entered the store (including the final Close window), before
// Flush, and fires even with no Flush configured — the configuration
// where flows previously vanished unobserved.
func TestWindowedObserveHook(t *testing.T) {
	t.Run("no-flush", func(t *testing.T) {
		var seen []string
		w := NewWindowed(WindowConfig{
			Width: time.Minute,
			Observe: func(win Window) {
				for _, f := range win.DB.All() {
					seen = append(seen, f.Label)
				}
			},
		})
		labels := []string{"a.example.com", "b.example.com", "c.example.com", "d.example.com"}
		ends := []time.Duration{10 * time.Second, 50 * time.Second, 70 * time.Second, 200 * time.Second}
		for i, l := range labels {
			if err := w.Add(wflow(ends[i], l)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(labels) {
			t.Fatalf("observed %d flows, want %d", len(seen), len(labels))
		}
		for i, l := range labels {
			if seen[i] != l {
				t.Fatalf("observed[%d] = %q, want %q", i, seen[i], l)
			}
		}
	})
	t.Run("before-flush", func(t *testing.T) {
		var order []string
		w := NewWindowed(WindowConfig{
			Width:   time.Minute,
			Observe: func(win Window) { order = append(order, fmt.Sprintf("observe%d:%d", win.Index, win.DB.Len())) },
			Flush: func(win Window) error {
				order = append(order, fmt.Sprintf("flush%d:%d", win.Index, win.DB.Len()))
				return nil
			},
		})
		if err := w.Add(wflow(10*time.Second, "a.example.com")); err != nil {
			t.Fatal(err)
		}
		if err := w.Add(wflow(70*time.Second, "b.example.com")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := []string{"observe0:1", "flush0:1", "observe1:1", "flush1:1"}
		if len(order) != len(want) {
			t.Fatalf("order %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("order %v, want %v", order, want)
			}
		}
	})
}

// TestWindowedMatchesBatch: concatenating window contents reproduces the
// plain append-only DB over the same emission sequence, record for record.
func TestWindowedMatchesBatch(t *testing.T) {
	batch := New()
	concat := New()
	w := NewWindowed(WindowConfig{
		Width: 30 * time.Second,
		Flush: func(win Window) error {
			concat.Merge(win.DB)
			return nil
		},
	})
	// Emission-order flows with deliberately out-of-order End times within
	// a window (idle expiry emits in recency order, not End order).
	ends := []time.Duration{5 * time.Second, 3 * time.Second, 40 * time.Second,
		35 * time.Second, 95 * time.Second, 70 * time.Second, 100 * time.Second}
	for i, end := range ends {
		f := wflow(end, fmt.Sprintf("s%d.example.com", i))
		batch.Add(f)
		if err := w.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if concat.Len() != batch.Len() {
		t.Fatalf("concatenated windows hold %d flows, batch %d", concat.Len(), batch.Len())
	}
	for i := range batch.All() {
		if batch.At(i).Label != concat.At(i).Label || batch.At(i).End != concat.At(i).End {
			t.Fatalf("record %d diverges: batch %q@%v, windows %q@%v",
				i, batch.At(i).Label, batch.At(i).End, concat.At(i).Label, concat.At(i).End)
		}
	}
}

// TestWindowedReusesStorage: after the high-water window, rotation must
// stop adding chunks (the bounded-heap property).
func TestWindowedReusesStorage(t *testing.T) {
	w := NewWindowed(WindowConfig{Width: time.Minute})
	perWindow := 2*chunkLen + 10
	step := time.Minute / time.Duration(perWindow+1)
	for win := 0; win < 8; win++ {
		base := time.Duration(win) * time.Minute
		for i := 0; i < perWindow; i++ {
			f := wflow(base+time.Duration(i)*step, "x.example.com")
			if err := w.Add(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The open window's DB, reset and refilled at every rotation, must
	// have settled at the chunks one window needs (one extra slot of slack
	// for the boundary flow).
	want := (perWindow + 1 + chunkLen - 1) / chunkLen
	if c := len(w.cur.chunks); c > want {
		t.Errorf("current window holds %d chunks after steady state, want <= %d", c, want)
	}
}

// TestWindowedRotationZeroesRetained: once a window is flushed, the
// recycled DB's name table holds none of its strings, so the flushed
// flows' strings are garbage at once, not when a later window overwrites
// them. Rows are pointer-free: the stale ones a recycled chunk keeps pin
// nothing.
func TestWindowedRotationZeroesRetained(t *testing.T) {
	w := NewWindowed(WindowConfig{Width: time.Minute})
	f := wflow(time.Second, "old.example.com")
	f.SNI, f.HTTPHost, f.CertName, f.HasCert = "old-sni.example.com", "old-host.example.com", "*.old.example.com", true
	f.Truth, f.Vantage = "old-truth.example.com", "old-vantage"
	f.Key.ServerIP = netip.MustParseAddr("fe80::1%old-zone")
	for i := 0; i < chunkLen+5; i++ {
		if err := w.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	// Crossing the boundary flushes the first window; one flow lands in
	// the second.
	if err := w.Add(wflow(90*time.Second, "new.example.com")); err != nil {
		t.Fatal(err)
	}
	if w.WindowsFlushed() != 1 || w.cur.Len() != 1 {
		t.Fatalf("flushed %d windows, current holds %d flows; want 1 and 1", w.WindowsFlushed(), w.cur.Len())
	}
	// The old names were filed in the table's first slab chunk, which the
	// DB keeps.
	for id := range uint32(256) {
		if s := w.cur.names.Str(id); strings.Contains(s, "old") {
			t.Fatalf("the recycled DB's name table keeps %q at ID %d", s, id)
		}
	}
	if len(w.cur.chunks) < 2 {
		t.Fatal("the recycled DB dropped its chunks; rotation must keep them for reuse")
	}
}

// TestWindowedFlushMergesParts: Flush hands the hooks one window holding
// the parts' rows in argument order, leaves the parts as they were, skips
// a window with no rows without spending an index, and recycles its merge
// DB once the hooks return.
func TestWindowedFlushMergesParts(t *testing.T) {
	var got []Window
	var labels [][]string
	w := NewWindowed(WindowConfig{Flush: func(win Window) error {
		got = append(got, win)
		var ls []string
		for _, f := range win.DB.All() {
			ls = append(ls, f.Label)
		}
		labels = append(labels, ls)
		return nil
	}})
	a, b, c := New(), New(), New()
	a.Add(wflow(time.Second, "a1.example.com"))
	a.Add(wflow(2*time.Second, "a2.example.com"))
	c.Add(wflow(time.Second, "c1.example.com"))
	if err := w.Flush(0, time.Minute, a, b, c); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(time.Minute, 2*time.Minute, b, New()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(2*time.Minute, 3*time.Minute, c); err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a1.example.com", "a2.example.com", "c1.example.com"}, {"c1.example.com"}}
	if len(got) != 2 || fmt.Sprint(labels) != fmt.Sprint(want) {
		t.Fatalf("flushed %v, want %v", labels, want)
	}
	if got[0].Index != 0 || got[0].Start != 0 || got[0].End != time.Minute ||
		got[1].Index != 1 || got[1].Start != 2*time.Minute || got[1].End != 3*time.Minute {
		t.Fatalf("window bounds %+v, %+v", got[0], got[1])
	}
	if got[1].DB != c || a.Len() != 2 || c.Len() != 1 {
		t.Fatal("Flush changed its parts, or copied a single part")
	}
	if w.merged.Len() != 0 || w.WindowsFlushed() != 2 {
		t.Fatalf("merge DB holds %d rows after the hooks, %d windows flushed", w.merged.Len(), w.WindowsFlushed())
	}
}

func TestWindowedFlushErrorSticky(t *testing.T) {
	boom := errors.New("boom")
	w := NewWindowed(WindowConfig{
		Width: time.Minute,
		Flush: func(Window) error { return boom },
	})
	if err := w.Add(wflow(time.Second, "")); err != nil {
		t.Fatal(err)
	}
	err := w.Add(wflow(2*time.Minute, ""))
	if !errors.Is(err, boom) {
		t.Fatalf("Add after failing flush: %v, want %v", err, boom)
	}
	if err := w.Add(wflow(3*time.Minute, "")); !errors.Is(err, boom) {
		t.Fatalf("sticky error not returned: %v", err)
	}
	if err := w.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after failing flush: %v, want %v", err, boom)
	}
}

func TestDBReset(t *testing.T) {
	db := New()
	db.Add(LabeledFlow{Label: "a.example.com", Labeled: true})
	db.Reset()
	if db.Len() != 0 {
		t.Fatalf("Len after Reset = %d", db.Len())
	}
	if db.filed("a.example.com") {
		t.Fatal("after Reset the name table still files a.example.com")
	}
	db.Add(LabeledFlow{Label: "b.example.com", Labeled: true})
	if got := db.At(0); db.Len() != 1 || got.Label != "b.example.com" || got.SLD != "example.com" {
		t.Fatalf("post-reset reuse: Len %d, At(0) = %+v", db.Len(), got)
	}
}
