package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"demeter/internal/simrand"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	src := simrand.New(1)
	h := NewHistogram()
	var raw []float64
	for i := 0; i < 50000; i++ {
		// Latency-like values spanning 50ns..10ms.
		v := 50 + src.Exp(20000)
		h.Observe(v)
		raw = append(raw, v)
	}
	slices.Sort(raw)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := raw[int(q*float64(len(raw)))] // exact, nearest rank
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("q=%v: histogram %v vs exact %v (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	src := simrand.New(2)
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(src.Float64() * 1e6)
	}
	err := quick.Check(func(a, b float64) bool {
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Quantile(qa) <= h.Quantile(qb)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramClampsToObservedRange(t *testing.T) {
	h := NewHistogram()
	h.Observe(500)
	h.Observe(700)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v := h.Quantile(q)
		if v < 500 || v > 700 {
			t.Errorf("Quantile(%v) = %v outside observed [500,700]", q, v)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 10 || a.Max() != 1000 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if q := a.Quantile(0.9); q < 500 {
		t.Errorf("merged p90 = %v, want near 1000", q)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative observation should clamp to 0, min=%v", h.Min())
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatal("unprimed EWMA should be 0")
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation should prime: %v", e.Value())
	}
	e.Observe(0)
	if e.Value() != 50 {
		t.Fatalf("after 0 with alpha .5: %v", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(0, 10)
	s.Append(1, 20)
	s.Append(2, 30)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %v", s.Mean())
	}
	sm := s.Smoothed(0.5)
	if sm.Len() != 3 {
		t.Fatalf("smoothed len = %d", sm.Len())
	}
	if sm.Values[0] != 10 || sm.Values[1] != 15 {
		t.Fatalf("smoothed values = %v", sm.Values)
	}
}

func TestSeriesRejectsTimeRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("time regression did not panic")
		}
	}()
	var s Series
	s.Append(5, 1)
	s.Append(4, 1)
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean with 0 did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Table 1: TLB flushes", "Design", "Single", "Full", "Elapsed (s)")
	tb.AddRow("H-TPP", 62289626, 20214840, 896.35)
	tb.AddRow("Demeter", 9305363, 0, 299.57)
	out := tb.String()
	for _, want := range []string{"Table 1", "Design", "H-TPP", "Demeter", "62289626", "896.4"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestTableNoHeaders(t *testing.T) {
	tb := NewTable("")
	tb.AddRow("a", "b")
	out := tb.String()
	if strings.Contains(out, "-") {
		t.Errorf("header rule printed without headers:\n%s", out)
	}
}

// TestHistogramSingleValueQuantile is the regression for quantile
// clamping: with one observation every quantile IS that observation. The
// value 1000 sits in a bucket whose geometric midpoint (~1036) overshoots
// it, so an unclamped implementation would report a latency that never
// happened.
func TestHistogramSingleValueQuantile(t *testing.T) {
	for _, v := range []float64{1000, 3, 987654} {
		h := NewHistogram()
		h.Observe(v)
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Errorf("single value %v: Quantile(%v) = %v, want exactly the observation", v, q, got)
			}
		}
		if h.Quantile(0.5) != h.Max() {
			t.Errorf("single value %v: Quantile(0.5) = %v != Max() = %v", v, h.Quantile(0.5), h.Max())
		}
	}
}

func TestHistogramCloneIndependent(t *testing.T) {
	h := NewHistogram()
	h.Observe(10)
	h.Observe(20)
	c := h.Clone()
	h.Observe(1e6)
	if c.Count() != 2 || c.Max() != 20 {
		t.Fatalf("clone tracked the original: count=%d max=%v", c.Count(), c.Max())
	}
	c.Observe(5)
	if h.Count() != 3 || h.Min() != 10 {
		t.Fatalf("original tracked the clone: count=%d min=%v", h.Count(), h.Min())
	}
}
