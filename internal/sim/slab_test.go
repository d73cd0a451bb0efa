package sim

import (
	"container/heap"
	"testing"
)

// Tests for the slab/generation machinery behind the engine: refs into
// recycled slots must be inert, and the slab heap must agree with a
// reference implementation under arbitrary schedule/cancel/fire
// interleavings.

// TestEventRefRecycledSlotIsInert pins the generation-stamp guarantee:
// once a slot is freed (cancel or fire) and recycled by a later
// schedule, the stale ref can neither report Pending nor Cancel the
// slot's new occupant.
func TestEventRefRecycledSlotIsInert(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(Second, func(*Engine) { t.Fatal("cancelled event fired") })
	if !stale.Cancel() {
		t.Fatal("first Cancel must succeed")
	}
	// The freed slot is head of the free list: this schedule recycles it.
	fired := false
	fresh := e.Schedule(2*Second, func(*Engine) { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("test setup: expected slot reuse, got %d then %d", stale.slot, fresh.slot)
	}
	if stale.Pending() {
		t.Fatal("stale ref reports Pending for the slot's new occupant")
	}
	if stale.Cancel() {
		t.Fatal("stale ref cancelled the slot's new occupant")
	}
	if !fresh.Pending() {
		t.Fatal("fresh event lost")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("fresh event never fired")
	}
}

// TestEventRefAfterFireIsInert covers the fire path: a ref to an event
// that already executed is a no-op even after its slot is recycled,
// including when the recycling schedule happens inside the handler.
func TestEventRefAfterFireIsInert(t *testing.T) {
	e := NewEngine()
	var inner EventRef
	innerFired := false
	outer := e.Schedule(Second, func(e *Engine) {
		// The firing event's slot is already free here: this reuses it.
		inner = e.Schedule(Second, func(*Engine) { innerFired = true })
	})
	e.Step()
	if outer.Pending() {
		t.Fatal("fired event still pending")
	}
	if inner.slot != outer.slot {
		t.Fatalf("test setup: expected in-handler slot reuse, got %d then %d", outer.slot, inner.slot)
	}
	if outer.Cancel() {
		t.Fatal("ref to fired event cancelled its slot's new occupant")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !innerFired {
		t.Fatal("inner event never fired")
	}
}

// TestScheduleCallClosureFreePath exercises ScheduleCall/ScheduleCallAt:
// args arrive intact, cancellation works, FIFO order holds against
// closure-scheduled events at the same instant.
func TestScheduleCallClosureFreePath(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	e.ScheduleCall(Second, record, 1)
	e.Schedule(Second, func(*Engine) { got = append(got, 2) })
	e.ScheduleCallAt(Time(Second), record, 3)
	dead := e.ScheduleCall(Second, record, 99)
	if !dead.Cancel() {
		t.Fatal("cancel failed")
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestEngineResetRecyclesAndInvalidates pins the arena contract: after
// Reset the clock and queue are empty, refs from before the reset are
// inert, and the engine replays a schedule exactly like a fresh one.
func TestEngineResetRecyclesAndInvalidates(t *testing.T) {
	e := NewEngine()
	var refs []EventRef
	for i := 0; i < 10; i++ {
		refs = append(refs, e.Schedule(Duration(i+1)*Second, func(*Engine) {}))
	}
	e.Step()
	e.Reset()
	if e.Now() != 0 || e.Len() != 0 || e.Executed != 0 {
		t.Fatalf("Reset left state: now=%v len=%d executed=%d", e.Now(), e.Len(), e.Executed)
	}
	for i, r := range refs {
		if r.Pending() {
			t.Fatalf("ref %d survived Reset", i)
		}
		if r.Cancel() {
			t.Fatalf("ref %d cancelled something after Reset", i)
		}
	}
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(Duration(5-i)*Second, func(*Engine) { got = append(got, i) })
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 4-i {
			t.Fatalf("post-Reset order %v", got)
		}
	}
}

// refEvent / refQueue form the oracle for the fuzz test: the textbook
// container/heap queue the slab engine replaced.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}
type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any     { old := *q; n := len(old); x := old[n-1]; *q = old[:n-1]; return x }

// TestResetAfterPartialDrain covers a pooled engine released mid-run (a
// horizon reached, a watchdog kill): Run leaves the drain cursor
// mid-bucket with sorted entries behind it and occupancy bits set;
// Reset must clear every near bucket, the occupancy bitmap and the far
// heap so a reused engine replays a fresh schedule exactly, with no
// stale entry firing and no occupancy bit left for a drained bucket.
func TestResetAfterPartialDrain(t *testing.T) {
	e := NewEngine()
	boom := func(any) { t.Fatal("stale pre-Reset event fired") }
	// Populate several near buckets (same-tick collisions included), the
	// bucket the cursor will stop inside, and the far heap.
	e.ScheduleCall(100*Microsecond, func(any) {}, nil)
	e.ScheduleCall(200*Microsecond, func(any) {}, nil)
	e.ScheduleCall(200*Microsecond, func(any) {}, nil)
	e.ScheduleCall(600*Microsecond, boom, nil) // same bucket as 200µs, beyond the stop
	e.ScheduleCall(5*Millisecond, boom, nil)   // later bucket
	e.ScheduleCall(2*ladWindow, boom, nil)     // far heap
	if _, err := e.Run(Time(300 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if e.Executed != 3 {
		t.Fatalf("partial drain fired %d events, want 3", e.Executed)
	}

	e.Reset()
	if e.Now() != 0 || e.Len() != 0 || e.Executed != 0 {
		t.Fatalf("Reset left now=%v len=%d executed=%d", e.Now(), e.Len(), e.Executed)
	}
	for i, w := range e.occupied {
		if w != 0 {
			t.Fatalf("occupancy word %d = %#x after Reset", i, w)
		}
	}
	for i := range e.buckets {
		if len(e.buckets[i]) != 0 {
			t.Fatalf("bucket %d holds %d entries after Reset", i, len(e.buckets[i]))
		}
	}
	if len(e.heap) != 0 {
		t.Fatalf("far heap holds %d entries after Reset", len(e.heap))
	}

	// Replay a fresh schedule over the same buckets the partial drain
	// touched; order and count must match a fresh engine exactly.
	var got []int
	for i, d := range []Duration{600 * Microsecond, 200 * Microsecond, 2 * ladWindow, 100 * Microsecond} {
		i := i
		e.ScheduleCall(d, func(any) { got = append(got, i) }, nil)
	}
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 0, 2}
	if len(got) != len(want) {
		t.Fatalf("post-Reset replay fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-Reset replay fired %v, want %v", got, want)
		}
	}
}

// TestEngineLadderDifferentialFuzz drives the ladder-queue engine and
// the reference heap with identical schedule/cancel sequences and
// requires identical firing order. Unlike TestEngineFuzzInterleaving it
// stresses the ladder's structural seams: delays spanning nanoseconds
// to hours (near bucket, window edge, far spill heap), exact bucket-
// and window-boundary timestamps, same-tick collisions drained by the
// batched Run loop, nested in-handler scheduling into the tick being
// drained, and window jumps across long idle gaps.
func TestEngineLadderDifferentialFuzz(t *testing.T) {
	rng := NewRNG(0x1adde2)
	e := NewEngine()

	type entry struct {
		id  int
		ref EventRef
	}
	var (
		oracle    refQueue
		seq       uint64 // mirrors e.seq: every push goes through push()
		nextID    int
		fired     []int
		cancelled = map[int]bool{}
		live      []entry
	)
	var push func(d Duration)
	record := func(arg any) {
		id := arg.(int)
		if cancelled[id] {
			t.Fatalf("cancelled event %d fired", id)
		}
		fired = append(fired, id)
		// Deterministic nested scheduling: some handlers chain follow-ups
		// into the tick being batch-drained (d == 0) or right behind it.
		switch id % 11 {
		case 0:
			push(0)
		case 5:
			push(Duration(id%3) * Millisecond)
		}
	}
	push = func(d Duration) {
		id := nextID
		nextID++
		ref := e.ScheduleCall(d, record, id)
		seq++
		heap.Push(&oracle, refEvent{at: e.Now().Add(d), seq: seq, id: id})
		live = append(live, entry{id: id, ref: ref})
	}

	// Delay scales crossing every tier boundary: inside a bucket, exact
	// bucket width, exact window width, just beyond, and far future.
	scales := []Duration{
		0, Nanosecond, Microsecond,
		ladWidth - 1, ladWidth, ladWidth + 1,
		Millisecond * 7,
		ladWindow - 1, ladWindow, ladWindow + 1,
		Second, 37 * Second, 12 * Minute, Hour,
	}
	delay := func() Duration {
		d := scales[rng.Intn(len(scales))]
		switch rng.Intn(3) {
		case 0:
			return d // exact boundary
		case 1:
			return d + Duration(rng.Intn(1000))*Microsecond
		default:
			// Quantized to provoke same-tick collisions.
			return d + Duration(rng.Intn(4))*Millisecond
		}
	}
	cancelRandom := func() {
		if len(live) == 0 {
			return
		}
		i := rng.Intn(len(live))
		en := live[i]
		live = append(live[:i], live[i+1:]...)
		if en.ref.Cancel() {
			cancelled[en.id] = true
			for j, ev := range oracle {
				if ev.id == en.id {
					heap.Remove(&oracle, j)
					break
				}
			}
		}
	}
	// runSegment advances the engine to a horizon through Run — the
	// batched dispatch loop — and replays the oracle to the same
	// horizon, comparing the fired sequences. Nested pushes made by
	// handlers entered both queues before the oracle replay starts, so
	// any divergence in order shows up as a mismatch.
	runSegment := func() {
		horizon := e.Now().Add(Duration(1+rng.Intn(4000)) * Millisecond)
		if rng.Intn(8) == 0 {
			horizon = e.Now().Add(Duration(1+rng.Intn(3)) * Hour) // long jump
		}
		mark := len(fired)
		if _, err := e.Run(horizon); err != nil {
			t.Fatal(err)
		}
		var want []int
		for len(oracle) > 0 && oracle[0].at <= horizon {
			want = append(want, heap.Pop(&oracle).(refEvent).id)
		}
		got := fired[mark:]
		if len(got) != len(want) {
			t.Fatalf("segment to %v fired %d events, oracle wanted %d", horizon, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segment to %v diverged at %d: engine %v, oracle %v", horizon, i, got, want)
			}
		}
	}

	for op := 0; op < 30000; op++ {
		switch r := rng.Intn(100); {
		case r < 55:
			push(delay())
		case r < 70:
			cancelRandom()
		default:
			runSegment()
		}
		if e.Len() != len(oracle) {
			t.Fatalf("op %d: engine Len %d, oracle %d", op, e.Len(), len(oracle))
		}
	}
	// Drain completely and compare the tail.
	mark := len(fired)
	if _, err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	var want []int
	for len(oracle) > 0 {
		want = append(want, heap.Pop(&oracle).(refEvent).id)
	}
	got := fired[mark:]
	if len(got) != len(want) {
		t.Fatalf("final drain fired %d events, oracle wanted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final drain diverged at index %d", i)
		}
	}
}

// TestEngineFuzzInterleaving drives a deterministic pseudo-random mix of
// schedule, cancel and fire operations and checks the engine against
// the reference heap: same firing order, cancelled events never fire,
// Len always agrees.
func TestEngineFuzzInterleaving(t *testing.T) {
	rng := NewRNG(0xfeed)
	e := NewEngine()

	type tracked struct {
		ref       EventRef
		id        int
		cancelled bool
		fired     bool
	}
	var (
		oracle  refQueue
		live    []*tracked
		byID    = map[int]*tracked{}
		firedID []int
		nextID  int
		seq     uint64
	)
	schedule := func() {
		d := Duration(rng.Intn(1000)) * Millisecond
		id := nextID
		nextID++
		tr := &tracked{id: id}
		tr.ref = e.ScheduleCall(d, func(arg any) {
			got := byID[arg.(int)]
			if got.cancelled {
				t.Fatalf("cancelled event %d fired", got.id)
			}
			got.fired = true
			firedID = append(firedID, got.id)
		}, id)
		byID[id] = tr
		live = append(live, tr)
		seq++
		heap.Push(&oracle, refEvent{at: e.Now().Add(d), seq: seq, id: id})
	}
	cancelRandom := func() {
		if len(live) == 0 {
			return
		}
		i := rng.Intn(len(live))
		tr := live[i]
		live = append(live[:i], live[i+1:]...)
		if tr.ref.Cancel() {
			tr.cancelled = true
			for j, ev := range oracle {
				if ev.id == tr.id {
					heap.Remove(&oracle, j)
					break
				}
			}
		} else if !tr.fired {
			t.Fatalf("Cancel of live unfired event %d failed", tr.id)
		}
	}
	fire := func() {
		before := len(firedID)
		stepped := e.Step()
		if len(oracle) == 0 {
			if stepped {
				t.Fatal("engine fired with empty oracle")
			}
			return
		}
		want := heap.Pop(&oracle).(refEvent)
		if !stepped {
			t.Fatalf("engine idle but oracle holds event %d", want.id)
		}
		if len(firedID) != before+1 || firedID[len(firedID)-1] != want.id {
			t.Fatalf("fired %v, oracle wanted %d", firedID[before:], want.id)
		}
		for i, tr := range live {
			if tr.id == want.id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}

	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			schedule()
		case r < 7:
			cancelRandom()
		default:
			fire()
		}
		if e.Len() != len(oracle) {
			t.Fatalf("op %d: engine Len %d, oracle %d", op, e.Len(), len(oracle))
		}
	}
	for len(oracle) > 0 {
		fire()
	}
	if e.Step() {
		t.Fatal("engine fired past a drained oracle")
	}
	for _, tr := range byID {
		if tr.cancelled && tr.fired {
			t.Fatalf("event %d both cancelled and fired", tr.id)
		}
	}
}
