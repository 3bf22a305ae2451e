package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFBasics(t *testing.T) {
	var c CDF
	for _, x := range []float64{1, 2, 2, 3, 10} {
		c.Add(x)
	}
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.2}, {2, 0.6}, {3, 0.8}, {9.99, 0.8}, {10, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 {
		t.Fatal("empty CDF should return 0")
	}
}

func TestCDFInterleavedAddAndQuery(t *testing.T) {
	var c CDF
	c.Add(5)
	if c.At(5) != 1 {
		t.Fatal("At after first add")
	}
	c.Add(1) // must re-sort transparently
	if got := c.At(1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("At(1) after second add = %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		var c CDF
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				c.Add(x)
			}
		}
		if c.Len() == 0 {
			return true
		}
		sort.Float64s(probes)
		prev := -1.0
		for _, p := range probes {
			if math.IsNaN(p) {
				continue
			}
			v := c.At(p)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinner(t *testing.T) {
	b := NewBinner(10 * time.Minute)
	b.Incr(5 * time.Minute)
	b.Incr(9 * time.Minute)
	b.Incr(10 * time.Minute)
	b.Add(35*time.Minute, 2.5)
	vs := b.Values()
	if len(vs) != 4 {
		t.Fatalf("bins = %d, want 4", len(vs))
	}
	if vs[0] != 2 || vs[1] != 1 || vs[2] != 0 || vs[3] != 2.5 {
		t.Fatalf("values = %v", vs)
	}
}

func TestBinnerNegativeOffset(t *testing.T) {
	b := NewBinner(time.Minute)
	b.Incr(-5 * time.Second)
	if vs := b.Values(); len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("values = %v", b.Values())
	}
}

func TestSetBinUnion(t *testing.T) {
	s := NewSetBinUnion(10 * time.Minute)
	s.Add(1*time.Minute, "a")
	s.Add(2*time.Minute, "a") // duplicate in same bin
	s.Add(3*time.Minute, "b")
	s.Add(15*time.Minute, "a")
	counts := s.Counts()
	if len(counts) != 2 || counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 4})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length = %d", len([]rune(s)))
	}
	if Sparkline([]float64{0, 0}) == "" {
		t.Fatal("all-zero input should still render")
	}
}
