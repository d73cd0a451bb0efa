package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds d to the counter.
func (c *Counter) Add(d uint64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Summary accumulates a running mean/variance/min/max of observations
// using Welford's algorithm, like the statistics classes of C++SIM.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Observe records one sample.
func (s *Summary) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// ObserveDuration records a virtual duration in seconds.
func (s *Summary) ObserveDuration(d Duration) { s.Observe(d.Seconds()) }

// N returns the number of samples.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 with no samples).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// String formats the summary for trace output.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.n, s.mean, s.min, s.max, s.Stddev())
}

// histSubBuckets is the number of log-scaled sub-buckets per power of
// two. 32 bounds a bucket's width at ~2.2% of its value, so a
// bucket-mode quantile is within ~1.1% of the true sample.
const histSubBuckets = 32

// histExactMax is the sample count up to which the exact values are
// retained: at or below it quantiles are exact (the regime of the
// paper's tables), above it the fixed bucket grid answers instead. The
// mode depends only on the total count, so a merged histogram answers
// identically to one that observed the same multiset directly.
const histExactMax = 256

// Histogram records a value distribution in fixed memory: every sample
// lands in a log-scaled bucket (histSubBuckets per octave, keyed by
// Frexp exponent and mantissa slice), and the exact values are kept
// only while the count stays within histExactMax. Memory is O(occupied
// buckets) — bounded by the value range, not the sample count — which
// is what lets open-loop runs observe millions of arrivals. Reads
// never mutate the histogram, so concurrent readers of a finished
// Stats registry are safe.
type Histogram struct {
	n        uint64
	sum      float64
	min, max float64
	exact    []float64 // kept only while n <= histExactMax
	zeros    uint64
	pos, neg map[int32]uint64 // bucketIdx(|x|) -> count, by sign
}

// bucketIdx maps a positive finite value to its bucket: the Frexp
// exponent selects the octave, the mantissa's position in [0.5, 1)
// the sub-bucket.
func bucketIdx(x float64) int32 {
	frac, exp := math.Frexp(x)
	sub := int32((frac - 0.5) * (2 * histSubBuckets))
	if sub < 0 {
		sub = 0
	}
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return int32(exp)*histSubBuckets + sub
}

// bucketValue returns the midpoint of a bucket (the reported
// representative of its samples).
func bucketValue(idx int32) float64 {
	exp := int(math.Floor(float64(idx) / histSubBuckets))
	sub := int(idx) - exp*histSubBuckets
	lo := math.Ldexp(0.5+float64(sub)/(2*histSubBuckets), exp)
	hi := math.Ldexp(0.5+float64(sub+1)/(2*histSubBuckets), exp)
	return (lo + hi) / 2
}

// Observe records one sample. Non-finite samples are clamped into the
// extreme buckets so a stray Inf cannot poison the index arithmetic.
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	if math.IsInf(x, 1) {
		x = math.MaxFloat64
	} else if math.IsInf(x, -1) {
		x = -math.MaxFloat64
	}
	if h.n == 0 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	h.n++
	h.sum += x
	if h.n <= histExactMax {
		h.exact = append(h.exact, x)
	} else {
		h.exact = nil
	}
	switch {
	case x == 0:
		h.zeros++
	case x > 0:
		if h.pos == nil {
			h.pos = make(map[int32]uint64)
		}
		h.pos[bucketIdx(x)]++
	default:
		if h.neg == nil {
			h.neg = make(map[int32]uint64)
		}
		h.neg[bucketIdx(-x)]++
	}
}

// ObserveDuration records a virtual duration in seconds.
func (h *Histogram) ObserveDuration(d Duration) { h.Observe(d.Seconds()) }

// N returns the number of samples.
func (h *Histogram) N() int { return int(h.n) }

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 { return h.max }

// clampRange keeps a bucket representative inside the observed range.
func (h *Histogram) clampRange(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank, or 0
// with no samples: exact while the count is within histExactMax,
// bucket-resolved (within ~1.1% relative error) beyond it. The read
// sorts a copy — it never mutates the histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	if h.exact != nil {
		s := append([]float64(nil), h.exact...)
		sort.Float64s(s)
		return s[int(q*float64(len(s)-1))]
	}
	rank := uint64(q * float64(h.n-1))
	// Walk the buckets in ascending value order: negatives descend by
	// index (larger magnitude first), then zeros, then positives ascend.
	var cum uint64
	keys := make([]int32, 0, len(h.neg))
	for k := range h.neg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	for _, k := range keys {
		cum += h.neg[k]
		if cum > rank {
			return h.clampRange(-bucketValue(k))
		}
	}
	cum += h.zeros
	if cum > rank {
		return h.clampRange(0)
	}
	keys = keys[:0]
	for k := range h.pos {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		cum += h.pos[k]
		if cum > rank {
			return h.clampRange(bucketValue(k))
		}
	}
	return h.max
}

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Merge folds another histogram into h. Bucket counts add exactly;
// the exact value lists survive only while the combined count stays
// within histExactMax, so the quantile mode — and therefore the
// answer — depends only on the merged totals.
func (h *Histogram) Merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	if h.n+o.n <= histExactMax && (h.n == 0 || h.exact != nil) && o.exact != nil {
		h.exact = append(h.exact, o.exact...)
	} else {
		h.exact = nil
	}
	h.n += o.n
	h.sum += o.sum
	h.zeros += o.zeros
	if len(o.pos) > 0 {
		if h.pos == nil {
			h.pos = make(map[int32]uint64, len(o.pos))
		}
		for k, c := range o.pos {
			h.pos[k] += c
		}
	}
	if len(o.neg) > 0 {
		if h.neg == nil {
			h.neg = make(map[int32]uint64, len(o.neg))
		}
		for k, c := range o.neg {
			h.neg[k] += c
		}
	}
}

// Series records (time, value) pairs, e.g. the number of stored CLCs
// over virtual time; used to reproduce the garbage-collection tables.
type Series struct {
	Times  []Time
	Values []float64
}

// Record appends one point.
func (s *Series) Record(t Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// At returns the last value recorded at or before t (0 if none).
func (s *Series) At(t Time) float64 {
	i := sort.Search(len(s.Times), func(i int) bool { return s.Times[i] > t })
	if i == 0 {
		return 0
	}
	return s.Values[i-1]
}

// Stats is a named registry of counters, summaries and series shared by
// the components of one simulation run.
type Stats struct {
	counters   map[string]*Counter
	summaries  map[string]*Summary
	series     map[string]*Series
	histograms map[string]*Histogram
}

// NewStats returns an empty registry.
func NewStats() *Stats { return NewStatsHint(0) }

// NewStatsHint returns an empty registry whose counter map is presized
// for roughly hint entries. Harnesses that can bound their metric
// cardinality up front use it to avoid rehashing during a run; the
// hint should track the counters actually registered (per-pair network
// counters appear lazily, on first traffic), not the worst case.
func NewStatsHint(hint int) *Stats {
	return &Stats{
		counters:   make(map[string]*Counter, hint),
		summaries:  make(map[string]*Summary),
		series:     make(map[string]*Series),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
func (s *Stats) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Summary returns (creating if needed) the summary with the given name.
func (s *Stats) Summary(name string) *Summary {
	m, ok := s.summaries[name]
	if !ok {
		m = &Summary{}
		s.summaries[name] = m
	}
	return m
}

// Series returns (creating if needed) the series with the given name.
func (s *Stats) Series(name string) *Series {
	m, ok := s.series[name]
	if !ok {
		m = &Series{}
		s.series[name] = m
	}
	return m
}

// Histogram returns (creating if needed) the histogram with the given
// name.
func (s *Stats) Histogram(name string) *Histogram {
	m, ok := s.histograms[name]
	if !ok {
		m = &Histogram{}
		s.histograms[name] = m
	}
	return m
}

// CounterValue returns the value of a counter, 0 if absent.
func (s *Stats) CounterValue(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// ForEachCounter visits every registered counter in name order.
func (s *Stats) ForEachCounter(fn func(name string, value uint64)) {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fn(n, s.counters[n].Value())
	}
}

// Names returns the sorted names of all registered metrics.
func (s *Stats) Names() []string {
	var names []string
	for n := range s.counters {
		names = append(names, n)
	}
	for n := range s.summaries {
		names = append(names, n)
	}
	for n := range s.series {
		names = append(names, n)
	}
	for n := range s.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Dump renders every metric, one per line, sorted by name — the
// "lowest simulator output is statistical data" mode of the paper.
func (s *Stats) Dump() string {
	var b strings.Builder
	var names []string
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter %-46s %d\n", n, s.counters[n].Value())
	}
	names = names[:0]
	for n := range s.summaries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "summary %-46s %s\n", n, s.summaries[n])
	}
	names = names[:0]
	for n := range s.series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "series  %-46s %d points\n", n, s.series[n].Len())
	}
	names = names[:0]
	for n := range s.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.histograms[n]
		fmt.Fprintf(&b, "histo   %-46s n=%d p50=%.4g p99=%.4g p999=%.4g\n",
			n, h.N(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999))
	}
	return b.String()
}
