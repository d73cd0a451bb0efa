package sim

import (
	"testing"
)

// TestPostBatchFiresInAddOrder checks the PostBatch contract: members
// added with non-decreasing times and increasing keys fire exactly in
// Add order, each at its own time, sharing one handler/arg.
func TestPostBatchFiresInAddOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	b := e.NewPostBatch(func(any) { got = append(got, e.Now()) }, nil)
	times := []Time{Time(Millisecond), Time(Millisecond), Time(2 * Millisecond), Time(5 * Millisecond)}
	for i, at := range times {
		b.Add(at, uint64(i+1))
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(times) {
		t.Fatalf("fired %d members, want %d", len(got), len(times))
	}
	for i, at := range times {
		if got[i] != at {
			t.Fatalf("member %d fired at %v, want %v (all: %v)", i, got[i], at, got)
		}
	}
}

// TestPostBatchInterleavesWithStandalonePosts checks that batch members
// keep their global (time, key) positions relative to independently
// scheduled post events — batching is mechanics, not ordering.
func TestPostBatchInterleavesWithStandalonePosts(t *testing.T) {
	e := NewEngine()
	var got []int
	mk := func(tag int) func(any) { return func(any) { got = append(got, tag) } }
	b := e.NewPostBatch(mk(1), nil)
	// Same instant: key decides. Batch members get keys 2 and 4;
	// standalone posts take 1, 3 and 5.
	at := Time(3 * Millisecond)
	e.SchedulePostCallAt(at, 1, mk(0), nil)
	b.Add(at, 2)
	e.SchedulePostCallAt(at, 3, mk(0), nil)
	b.Add(at, 4)
	e.SchedulePostCallAt(at, 5, mk(0), nil)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave %v, want %v", got, want)
		}
	}
}

// TestPostBatchFarSpill drives members beyond the near-tier window:
// they must spill as standalone far-tier events and still fire in
// global time order with the near-tier members.
func TestPostBatchFarSpill(t *testing.T) {
	e := NewEngine()
	var got []Time
	b := e.NewPostBatch(func(any) { got = append(got, e.Now()) }, nil)
	// The near window spans ladBuckets<<ladShift ≈ 537ms from the
	// current window start; a member a full hour out is far-tier.
	times := []Time{Time(Millisecond), Time(Hour), Time(Millisecond * 2), Time(2 * Hour)}
	for i, at := range times {
		b.Add(at, uint64(i+1))
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(Millisecond), Time(Millisecond * 2), Time(Hour), Time(2 * Hour)}
	if len(got) != len(want) {
		t.Fatalf("fired %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

// TestPostBatchSlotReuse checks slab accounting: after a batch fully
// fires, its slot is recycled and a fresh batch reuses the slab without
// leaking entries (engine count returns to zero).
func TestPostBatchSlotReuse(t *testing.T) {
	e := NewEngine()
	fired := 0
	for round := 0; round < 100; round++ {
		b := e.NewPostBatch(func(any) { fired++ }, nil)
		base := e.Now() + Time(Millisecond)
		for i := 0; i < 7; i++ {
			b.Add(base, uint64(i+1))
		}
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 700 {
		t.Fatalf("fired %d members, want 700", fired)
	}
	if e.count != 0 {
		t.Fatalf("engine count %d after all batches drained, want 0", e.count)
	}
	if len(e.slab) > 64 {
		t.Fatalf("slab grew to %d slots across 100 sequential batches; slots are not being recycled", len(e.slab))
	}
}

// TestPostBatchMembersCarryOwnTimes regression-tests the stale-slab-at
// hazard: the shared slot records the first member's time, so the
// engine must take each member's fire time from its ladder entry, not
// from the slab.
func TestPostBatchMembersCarryOwnTimes(t *testing.T) {
	e := NewEngine()
	var got []Time
	b := e.NewPostBatch(func(any) { got = append(got, e.Now()) }, nil)
	b.Add(Time(Millisecond), 1)
	b.Add(Time(100*Millisecond), 2) // same near window, different bucket
	// A standalone event between the two members: if member 2 fired at
	// the slab's recorded time (1ms) it would run before this one.
	var betweenAt Time
	e.Schedule(50*Millisecond, func(e *Engine) { betweenAt = e.Now() })
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != Time(Millisecond) || got[1] != Time(100*Millisecond) {
		t.Fatalf("member times %v, want [1ms 100ms]", got)
	}
	if betweenAt != Time(50*Millisecond) {
		t.Fatalf("standalone event fired at %v, want 50ms", betweenAt)
	}
}

// TestPostClassFiresAfterOrdinaryByKey pins the post-tick class
// contract: at one timestamp, post-class events fire after every
// ordinary event — even ordinary events scheduled later, including from
// inside a post-class handler — and among themselves in key order
// regardless of scheduling order.
func TestPostClassFiresAfterOrdinaryByKey(t *testing.T) {
	e := NewEngine()
	tick := Time(Second)
	var got []string
	rec := func(arg any) { got = append(got, arg.(string)) }
	// Post-class scheduled first, with keys out of push order.
	e.SchedulePostCallAt(tick, 30, rec, "post30")
	e.SchedulePostCallAt(tick, 10, func(arg any) {
		got = append(got, arg.(string))
		// An ordinary zero-delay follow-up scheduled from a post handler
		// fires before the remaining post-class events of the tick.
		e.ScheduleCallAt(tick, rec, "nested-ordinary")
	}, "post10")
	e.SchedulePostCallAt(tick, 20, rec, "post20")
	e.ScheduleCallAt(tick, rec, "ordinary1")
	e.ScheduleCallAt(tick, rec, "ordinary2")
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ordinary1", "ordinary2", "post10", "nested-ordinary", "post20", "post30"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestPostClassOrderIndependentOfTier schedules the same same-tick mix
// twice — once so the tick lands in the near window, once so it spills
// through the far heap via a window jump — and requires the identical
// firing order: which tier a delivery lands in depends on how far ahead
// of the drain window its arrival is, and must not change the run.
func TestPostClassOrderIndependentOfTier(t *testing.T) {
	run := func(lead Duration) []string {
		e := NewEngine()
		tick := Time(lead)
		var got []string
		rec := func(arg any) { got = append(got, arg.(string)) }
		e.SchedulePostCallAt(tick, 2, rec, "p2")
		e.ScheduleCallAt(tick, rec, "o1")
		e.SchedulePostCallAt(tick, 1, rec, "p1")
		e.ScheduleCallAt(tick, rec, "o2")
		if _, err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	near := run(Millisecond)       // inside the initial near window
	far := run(ladWindow + Second) // beyond it: far heap + refill path
	want := []string{"o1", "o2", "p1", "p2"}
	for _, got := range [][]string{near, far} {
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("got %v, want %v", got, want)
			}
		}
	}
}
