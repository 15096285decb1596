package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleOf(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestMean(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestEmptySampleSafe(t *testing.T) {
	s := &Sample{}
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestMinMax(t *testing.T) {
	s := sampleOf(3, -1, 7, 2)
	if s.Min() != -1 || s.Max() != 7 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestQuantiles(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5)
	if s.Median() != 3 {
		t.Errorf("Median = %v, want 3", s.Median())
	}
	if q := s.Quantile(0.25); q != 2 {
		t.Errorf("Q25 = %v, want 2", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("Q0 = %v, want 1", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Errorf("Q1 = %v, want 5", q)
	}
}

// TestQuantileDegenerate pins down the behaviour on empty and
// single-element samples and on out-of-range or NaN q values — inputs the
// evaluation drivers hit when a configuration produced no (or one) run. A
// NaN q used to flow through int(math.Floor(NaN)) into a slice index.
func TestQuantileDegenerate(t *testing.T) {
	empty := &Sample{}
	one := sampleOf(42)
	two := sampleOf(1, 9)
	cases := []struct {
		name string
		s    *Sample
		q    float64
		want float64 // NaN means "want NaN"
	}{
		{"empty-mid", empty, 0.5, 0},
		{"empty-zero", empty, 0, 0},
		{"empty-one", empty, 1, 0},
		{"empty-nan", empty, math.NaN(), math.NaN()},
		{"single-mid", one, 0.5, 42},
		{"single-zero", one, 0, 42},
		{"single-one", one, 1, 42},
		{"single-below", one, -3, 42},
		{"single-above", one, 7, 42},
		{"single-nan", one, math.NaN(), math.NaN()},
		{"pair-below-clamps", two, -0.1, 1},
		{"pair-above-clamps", two, 1.1, 9},
		{"pair-nan", two, math.NaN(), math.NaN()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.s.Quantile(tc.q)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Errorf("Quantile(%v) = %v, want NaN", tc.q, got)
				}
				return
			}
			if got != tc.want {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestPercentile checks the percent-scaled wrapper agrees with Quantile,
// including on degenerate samples.
func TestPercentile(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5)
	cases := []struct {
		p    float64
		want float64
	}{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := (&Sample{}).Percentile(50); got != 0 {
		t.Errorf("empty Percentile(50) = %v, want 0", got)
	}
	if got := sampleOf(7).Percentile(99); got != 7 {
		t.Errorf("single Percentile(99) = %v, want 7", got)
	}
	if got := s.Percentile(math.NaN()); !math.IsNaN(got) {
		t.Errorf("Percentile(NaN) = %v, want NaN", got)
	}
}

func TestQuantileMonotone(t *testing.T) {
	prop := func(xs []float64, aRaw, bRaw uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		s := &Sample{}
		for _, x := range xs {
			s.Add(x)
		}
		a := float64(aRaw) / 255
		b := float64(bRaw) / 255
		if a > b {
			a, b = b, a
		}
		return s.Quantile(a) <= s.Quantile(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanBounds(t *testing.T) {
	prop := func(xs []float64) bool {
		s := &Sample{}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-6 && m <= s.Max()+1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Errorf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}
