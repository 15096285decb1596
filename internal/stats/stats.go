// Package stats provides summary statistics and text tables: means,
// extremes and quantiles of a sample, and the load models' arrival and
// popularity distributions (dist.go).
package stats

import (
	"math"
	"sort"
	"strings"
)

// Sample accumulates float64 observations.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Clone returns an independent copy of the sample.
func (s *Sample) Clone() Sample { return Sample{xs: append([]float64(nil), s.xs...)} }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation of
// the sorted sample. Degenerate inputs are defined rather than panicking:
// an empty sample yields 0 (like Mean/Min/Max), a single observation is
// every quantile of itself, q outside [0, 1] clamps to the extremes, and
// a NaN q returns NaN.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if math.IsNaN(q) {
		return math.NaN()
	}
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Percentile returns the p-th percentile (p in [0, 100]); Percentile(25)
// is Quantile(0.25). It shares Quantile's degenerate-input behaviour.
func (s *Sample) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// Table renders rows of cells under a header as an aligned text table,
// suitable for terminal output of the command-line tools.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
