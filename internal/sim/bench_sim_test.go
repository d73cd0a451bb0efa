package sim

import "testing"

// Micro-benchmarks of the DES substrate.

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var tick Handler
	n := 0
	tick = func(e *Engine) {
		n++
		if n < b.N {
			e.Schedule(Millisecond, tick)
		}
	}
	e.Schedule(Millisecond, tick)
	b.ResetTimer()
	if _, err := e.RunAll(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEnginePushPop measures one schedule+fire cycle — the pure
// heap cost every simulation event pays — with allocation tracking.
func BenchmarkEnginePushPop(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Microsecond, fn)
		e.Step()
	}
}

// BenchmarkEnginePushPopDeep measures push/pop against a standing queue
// of 4096 pending events (heap depth 12), the registry's typical load.
func BenchmarkEnginePushPopDeep(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	for i := 0; i < 4096; i++ {
		e.Schedule(Hour+Duration(i)*Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Microsecond, fn)
		e.Step()
	}
}

func BenchmarkEngineMixedQueue(b *testing.B) {
	// A churning queue with cancellations: the protocol's timer-heavy
	// access pattern.
	b.ReportAllocs()
	e := NewEngine()
	refs := make([]EventRef, 0, 64)
	count := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs = append(refs, e.Schedule(Duration(i%100+1)*Microsecond, func(*Engine) { count++ }))
		if len(refs) == 64 {
			for j := 0; j < 32; j++ {
				refs[j].Cancel()
			}
			refs = refs[:0]
		}
		if i%128 == 127 {
			for k := 0; k < 64; k++ {
				e.Step()
			}
		}
	}
	_, _ = e.RunAll()
}

// BenchmarkEnginePushPopLadder measures one schedule+fire cycle against
// each tier of the ladder queue. "near" schedules inside the bucket
// window (the network-delivery pattern that dominates real runs, O(1)
// bucket append); "far" schedules beyond the window, paying the spill
// heap plus a window jump per event (the worst case); "standing" keeps
// 4096 far-future events pending while cycling near events, the
// steady-state shape of a big federation (timers far, deliveries near).
func BenchmarkEnginePushPopLadder(b *testing.B) {
	fn := func(*Engine) {}
	b.Run("near", func(b *testing.B) {
		e := NewEngine()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Schedule(Millisecond, fn)
			e.Step()
		}
	})
	b.Run("far", func(b *testing.B) {
		e := NewEngine()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Schedule(Second, fn) // beyond the window: far heap + refill
			e.Step()
		}
	})
	b.Run("standing", func(b *testing.B) {
		e := NewEngine()
		for i := 0; i < 4096; i++ {
			e.Schedule(24*Hour+Duration(i)*Second, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Schedule(Millisecond, fn)
			e.Step()
		}
	})
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	var sink Duration
	for i := 0; i < b.N; i++ {
		sink += r.Exp(30 * Minute)
	}
	_ = sink
}

func BenchmarkSummaryObserve(b *testing.B) {
	var s Summary
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i % 1000))
	}
}

// BenchmarkOpenLoopArrivals prices the open-loop latency pipeline at
// heavy-traffic scale: one iteration draws 2^20 Poisson arrivals,
// observes a latency per arrival into the log-bucketed histogram and
// reads the p50/p99/p999 the matrix reports. The benchguard gate on
// allocs/op is the fixed-memory contract: the histogram allocates
// O(occupied buckets), so allocations stay flat in the arrival count —
// an implementation that keeps per-sample state regresses by four
// orders of magnitude here.
func BenchmarkOpenLoopArrivals(b *testing.B) {
	const arrivals = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRNG(uint64(i + 1))
		var h Histogram
		var at Duration
		for k := 0; k < arrivals; k++ {
			at += r.Exp(30 * Millisecond)
			// A latency shaped like the stable-delivery wait: commit-
			// period phase plus a link-scale tail.
			lat := float64(at%(5*Minute))/float64(Second) + r.Float64()
			h.Observe(lat)
		}
		if h.N() != arrivals {
			b.Fatal("lost samples")
		}
		if h.Quantile(0.5) <= 0 || h.Quantile(0.999) <= 0 {
			b.Fatal("bad quantiles")
		}
	}
	b.ReportMetric(arrivals, "arrivals/op")
}

// BenchmarkSeriesRecord measures recording a 100 000-point series, the
// length a per-cluster stored-CLC series reaches in a long open-loop
// run: points past the first 64 KiB block go to fixed-size blocks, so
// no recorded point is copied again.
func BenchmarkSeriesRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Series
		for j := 0; j < 100_000; j++ {
			s.Record(Time(j), float64(j))
		}
	}
}
