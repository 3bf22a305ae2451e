package stats

import (
	"math"
	"testing"
)

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.0)
	r := NewRNG(1)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("rank 0 (%d) not more popular than rank 10 (%d)", counts[0], counts[10])
	}
	if counts[0] <= counts[99] {
		t.Fatalf("rank 0 (%d) not more popular than rank 99 (%d)", counts[0], counts[99])
	}
	// For s=1, p(0)/p(9) = 10; allow generous tolerance.
	ratio := float64(counts[0]) / float64(counts[9]+1)
	if ratio < 5 || ratio > 20 {
		t.Fatalf("zipf ratio rank0/rank9 = %v, want ~10", ratio)
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZipf(0, 1)
}

func TestWeightedChoiceProportions(t *testing.T) {
	w := NewWeightedChoice([]float64{1, 3, 0, 6})
	r := NewRNG(2)
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[2])
	}
	if f := float64(counts[3]) / n; math.Abs(f-0.6) > 0.02 {
		t.Fatalf("weight-6 index frequency %v, want ~0.6", f)
	}
	if f := float64(counts[0]) / n; math.Abs(f-0.1) > 0.02 {
		t.Fatalf("weight-1 index frequency %v, want ~0.1", f)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	for _, ws := range [][]float64{{0, 0}, {-1, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", ws)
				}
			}()
			NewWeightedChoice(ws)
		}()
	}
}

func TestDiurnalPeakAndTrough(t *testing.T) {
	d := Diurnal{PeakHour: 21, Floor: 0.2}
	peak := d.Value(21)
	trough := d.Value(9) // 12 hours opposite the peak
	if math.Abs(peak-1) > 1e-9 {
		t.Fatalf("peak value %v, want 1", peak)
	}
	if math.Abs(trough-0.2) > 1e-9 {
		t.Fatalf("trough value %v, want 0.2", trough)
	}
	for h := 0.0; h < 24; h += 0.5 {
		v := d.Value(h)
		if v < 0.2-1e-9 || v > 1+1e-9 {
			t.Fatalf("Value(%v) = %v outside [floor, 1]", h, v)
		}
	}
}

func TestDiurnalDefaultFloor(t *testing.T) {
	d := Diurnal{PeakHour: 12} // Floor unset
	if v := d.Value(0); v < 0.05 {
		t.Fatalf("default floor too low: %v", v)
	}
}
