package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Population variance 4 => sample variance 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-9 {
		t.Fatalf("variance = %v", s.Variance())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		var sum float64
		finite := xs[:0]
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			finite = append(finite, x)
		}
		if len(finite) == 0 {
			return true
		}
		for _, x := range finite {
			s.Observe(x)
			sum += x
		}
		want := sum / float64(len(finite))
		scale := math.Max(1, math.Abs(want))
		return math.Abs(s.Mean()-want) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 100; i >= 1; i-- {
		h.Observe(float64(i))
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if q := h.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 1.5 {
		t.Fatalf("median = %v", q)
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
}

// TestHistogramBucketMode pushes the histogram past its exact-sample
// capacity and checks the log-bucketed quantiles stay within one
// sub-bucket's relative error (1/32 octave ~ 2.2%) of the true values.
func TestHistogramBucketMode(t *testing.T) {
	var h Histogram
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i))
	}
	if h.N() != n {
		t.Fatalf("N = %d", h.N())
	}
	if h.exact != nil {
		t.Fatal("exact sample list must be dropped past the small-count cap")
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := q * n
		got := h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.03 {
			t.Errorf("q%v = %v, want ~%v (rel err %.3f)", q, got, want, rel)
		}
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != n {
		t.Fatalf("extremes = %v, %v", h.Quantile(0), h.Quantile(1))
	}
	if m := h.Mean(); math.Abs(m-(n+1)/2.0) > 1e-6 {
		t.Fatalf("mean = %v", m)
	}
}

// TestHistogramQuantileDoesNotMutate pins the regression the exact
// path used to have: Quantile sorted the sample list in place, so
// interleaving Quantile calls with Observe corrupted later merges and
// made quantiles depend on query order.
func TestHistogramQuantileDoesNotMutate(t *testing.T) {
	var h Histogram
	for _, x := range []float64{5, 1, 4, 2, 3} {
		h.Observe(x)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	want := []float64{5, 1, 4, 2, 3}
	for i, x := range h.exact {
		if x != want[i] {
			t.Fatalf("Quantile reordered the sample list: %v", h.exact)
		}
	}
	// A second identical query must agree (no hidden state).
	if q := h.Quantile(0.5); q != 3 {
		t.Fatalf("repeated median = %v", q)
	}
}

// TestHistogramNegativeAndZero covers the signed bucket walk: negative
// samples rank below zeros, zeros below positives.
func TestHistogramNegativeAndZero(t *testing.T) {
	var h Histogram
	for i := 0; i < 200; i++ {
		h.Observe(-100)
	}
	for i := 0; i < 200; i++ {
		h.Observe(0)
	}
	for i := 0; i < 200; i++ {
		h.Observe(100)
	}
	if q := h.Quantile(0.05); math.Abs(q-(-100))/100 > 0.03 {
		t.Fatalf("low quantile = %v", q)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("median = %v", q)
	}
	if q := h.Quantile(0.95); math.Abs(q-100)/100 > 0.03 {
		t.Fatalf("high quantile = %v", q)
	}
}

// TestHistogramMergeMatchesPooled checks merge stability: merging
// per-run histograms yields the same quantiles as observing every
// sample in one histogram, in both exact and bucketed regimes.
func TestHistogramMergeMatchesPooled(t *testing.T) {
	for _, n := range []int{40, 4000} { // exact regime, bucket regime
		var a, b, pooled Histogram
		for i := 1; i <= n; i++ {
			x := float64(i)
			pooled.Observe(x)
			if i%2 == 0 {
				a.Observe(x)
			} else {
				b.Observe(x)
			}
		}
		a.Merge(&b)
		if a.N() != pooled.N() {
			t.Fatalf("n=%d: merged N = %d, want %d", n, a.N(), pooled.N())
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := a.Quantile(q), pooled.Quantile(q); got != want {
				t.Errorf("n=%d q%v: merged %v != pooled %v", n, q, got, want)
			}
		}
		if math.Abs(a.Mean()-pooled.Mean()) > 1e-9 {
			t.Errorf("n=%d: merged mean %v != pooled %v", n, a.Mean(), pooled.Mean())
		}
	}
}

// TestHistogramNonFinite: NaN samples are dropped, infinities clamp.
func TestHistogramNonFinite(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	if h.N() != 0 {
		t.Fatal("NaN must be dropped")
	}
	h.Observe(math.Inf(1))
	h.Observe(1)
	if h.N() != 2 || h.Max() != math.MaxFloat64 {
		t.Fatalf("N=%d max=%v", h.N(), h.Max())
	}
}

// TestHistogramMemoryBounded asserts the fixed-memory contract: the
// allocation count is a function of the value range (occupied
// buckets), not of the sample count. The broken implementation grew a
// []float64 per sample and allocated linearly in n.
func TestHistogramMemoryBounded(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			var h Histogram
			r := NewRNG(7)
			for i := 0; i < n; i++ {
				h.Observe(1 + r.Float64()*1000)
			}
			if h.Quantile(0.999) <= 0 {
				t.Fatal("bad quantile")
			}
		})
	}
	small, large := allocs(1<<15), allocs(1<<18) // 8x the samples
	if large > 1.5*small+64 {
		t.Fatalf("allocations grow with sample count: %v at 32Ki vs %v at 256Ki", small, large)
	}
}

func TestStatsHistogramRegistryAndDump(t *testing.T) {
	st := NewStats()
	h := st.Histogram("lat_s")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 100)
	}
	if st.Histogram("lat_s") != h {
		t.Fatal("histogram registry must return the same instance")
	}
	dump := st.Dump()
	for _, want := range []string{"histo", "lat_s", "p50=", "p999="} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestSeriesAt(t *testing.T) {
	var s Series
	s.Record(Time(10), 1)
	s.Record(Time(20), 2)
	s.Record(Time(30), 3)
	cases := []struct {
		t    Time
		want float64
	}{
		{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestStatsRegistry(t *testing.T) {
	st := NewStats()
	st.Counter("msgs").Add(3)
	st.Counter("msgs").Inc()
	if v := st.CounterValue("msgs"); v != 4 {
		t.Fatalf("counter = %d", v)
	}
	if v := st.CounterValue("absent"); v != 0 {
		t.Fatalf("absent counter = %d", v)
	}
	st.Summary("lat").Observe(1)
	st.Series("clcs").Record(Time(1), 1)
	names := st.Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	dump := st.Dump()
	for _, want := range []string{"msgs", "lat", "clcs"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestParseDuration(t *testing.T) {
	d, err := ParseDuration("30m")
	if err != nil || d != 30*Minute {
		t.Fatalf("ParseDuration(30m) = %v, %v", d, err)
	}
	d, err = ParseDuration("forever")
	if err != nil || d != Forever {
		t.Fatalf("ParseDuration(forever) = %v, %v", d, err)
	}
	if _, err := ParseDuration("bogus"); err == nil {
		t.Fatal("expected error for bogus duration")
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(90 * Minute)
	if t0 != Time(90*Minute) {
		t.Fatalf("Add = %v", t0)
	}
	if d := t0.Sub(Time(30 * Minute)); d != 60*Minute {
		t.Fatalf("Sub = %v", d)
	}
	if s := (90 * Minute).Minutes(); s != 90 {
		t.Fatalf("Minutes = %v", s)
	}
	// Saturating add must not wrap.
	huge := Time(1<<63 - 10)
	if huge.Add(Forever) < huge {
		t.Fatal("Add overflowed")
	}
}

func TestTraceLevels(t *testing.T) {
	e := NewEngine()
	var buf strings.Builder
	tr := NewTracer(e, &buf, TraceInfo)
	tr.Infof("node0", "hello %d", 1)
	tr.Debugf("node0", "not shown")
	if tr.Records != 1 {
		t.Fatalf("records = %d, want 1", tr.Records)
	}
	if !strings.Contains(buf.String(), "hello 1") {
		t.Fatalf("trace output = %q", buf.String())
	}
	var nilTr *Tracer
	nilTr.Infof("x", "must not panic")
	if nilTr.Level() != TraceOff {
		t.Fatal("nil tracer level")
	}
	if _, err := ParseTraceLevel("debug"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTraceLevel("nope"); err == nil {
		t.Fatal("expected error")
	}
}
