// Package stats provides the measurement primitives shared by all
// simulators in this repository: scalar samples, empirical CDFs, and the
// normalization used to produce the paper's "normalized to baseline
// TokenB" series.
package stats

import "sort"

// Sample accumulates scalar observations and reports summary statistics.
type Sample struct {
	n          uint64
	sum, sumSq float64
	min, max   float64
}

// Observe records one value.
func (s *Sample) Observe(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
}

// N returns the number of observations.
func (s *Sample) N() uint64 { return s.n }

// Mean returns the arithmetic mean (0 with no observations).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Var returns the population variance.
func (s *Sample) Var() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 { // numerical noise
		v = 0
	}
	return v
}

// Min and Max return the extremes (0 with no observations).
func (s *Sample) Min() float64 { return s.min }
func (s *Sample) Max() float64 { return s.max }

// Sum returns the running total.
func (s *Sample) Sum() float64 { return s.sum }

// Merge folds other's observations into s. Summary statistics after a merge
// equal those of a single Sample fed both observation streams.
func (s *Sample) Merge(other *Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 || other.min < s.min {
		s.min = other.min
	}
	if s.n == 0 || other.max > s.max {
		s.max = other.max
	}
	s.n += other.n
	s.sum += other.sum
	s.sumSq += other.sumSq
}

// CDF collects observations and reports the empirical cumulative
// distribution, used for Figure 9 (core-removal periods).
type CDF struct {
	vals   []float64
	sorted bool
}

// Observe records one value.
func (c *CDF) Observe(v float64) {
	c.vals = append(c.vals, v)
	c.sorted = false
}

// N returns the number of observations.
func (c *CDF) N() int { return len(c.vals) }

// Merge folds other's observations into c. The empirical distribution after
// a merge is order-independent (queries sort), so merging per-domain CDFs
// yields the same curve in any order.
func (c *CDF) Merge(other *CDF) {
	if len(other.vals) == 0 {
		return
	}
	c.vals = append(c.vals, other.vals...)
	c.sorted = false
}

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.vals)
		c.sorted = true
	}
}

// At returns the fraction of observations <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.vals) == 0 {
		return 0
	}
	c.ensureSorted()
	i := sort.SearchFloat64s(c.vals, x)
	// Include all entries equal to x.
	for i < len(c.vals) && c.vals[i] <= x {
		i++
	}
	return float64(i) / float64(len(c.vals))
}

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest rank.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.vals) == 0 {
		return 0
	}
	c.ensureSorted()
	if q <= 0 {
		return c.vals[0]
	}
	if q >= 1 {
		return c.vals[len(c.vals)-1]
	}
	i := int(q * float64(len(c.vals)))
	if i >= len(c.vals) {
		i = len(c.vals) - 1
	}
	return c.vals[i]
}

// Series samples the CDF at n evenly spaced points spanning [0, max] and
// returns (xs, ys) suitable for plotting a cumulative-distribution curve.
func (c *CDF) Series(n int) (xs, ys []float64) {
	if len(c.vals) == 0 || n <= 0 {
		return nil, nil
	}
	c.ensureSorted()
	max := c.vals[len(c.vals)-1]
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		x := max * float64(i+1) / float64(n)
		xs[i] = x
		ys[i] = c.At(x)
	}
	return xs, ys
}

// Normalize returns 100*value/base, the paper's "normalized (%)"
// convention; it returns 0 when base is 0.
func Normalize(value, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * value / base
}
