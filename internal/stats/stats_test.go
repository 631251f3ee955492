package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleSummary(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	if math.Abs(s.Var()-4) > 1e-9 {
		t.Fatalf("Var = %v, want 4", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

func TestCDF(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		c.Observe(v)
	}
	if got := c.At(5); got != 0.5 {
		t.Fatalf("At(5) = %v, want 0.5", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 6 {
		t.Fatalf("Quantile(0.5) = %v, want 6 (nearest rank)", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Fatalf("Quantile(1) = %v", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	var c CDF
	err := quick.Check(func(raw []uint16) bool {
		c = CDF{}
		for _, v := range raw {
			c.Observe(float64(v))
		}
		if len(raw) == 0 {
			return c.At(1) == 0
		}
		prev := -1.0
		for x := 0.0; x < 70000; x += 7001 {
			y := c.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCDFSeries(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Observe(float64(i))
	}
	xs, ys := c.Series(10)
	if len(xs) != 10 || len(ys) != 10 {
		t.Fatalf("series lengths %d %d", len(xs), len(ys))
	}
	if ys[9] != 1 {
		t.Fatalf("series must end at 1, got %v", ys[9])
	}
	for i := 1; i < 10; i++ {
		if ys[i] < ys[i-1] {
			t.Fatalf("series not monotone at %d: %v", i, ys)
		}
	}
}

func TestNormalize(t *testing.T) {
	if Normalize(50, 200) != 25 {
		t.Fatal("Normalize wrong")
	}
	if Normalize(1, 0) != 0 {
		t.Fatal("zero base must yield 0")
	}
}
