package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// Handler is a callback executed when an event fires. It receives the
// engine so it can schedule further events.
type Handler func(e *Engine)

// The scheduling core is a two-tier ladder queue:
//
//   - The near tier is an array of ladBuckets buckets, each ladWidth of
//     virtual time wide, covering the window [winStart, winEnd). An
//     event due inside the window is appended to its bucket in O(1);
//     the bucket is sorted by (at, ord) only when the drain cursor
//     reaches it. Ordinary events take ord from the monotonically
//     increasing schedule counter, so sorting by the total (at, ord)
//     key reproduces exactly the FIFO-within-a-tick order the seed's
//     binary heap produced. Post-class events (SchedulePostCallAt)
//     carry an explicit caller-chosen key with the top bit set, so at
//     equal timestamps they fire after every ordinary event, ordered
//     among themselves by key — an order that is a pure function of
//     the caller's keys, independent of scheduling order.
//   - The far tier is the classic slab-indexed binary heap. Events due
//     at or beyond winEnd spill there; when the near tier drains, the
//     window jumps to the earliest far event and every far event inside
//     the new window migrates into the buckets in one pass.
//
// Correctness never depends on an event landing in the "right" tier:
// the pop path compares the heads of both tiers by (at, ord) and takes
// the smaller, so any event routed conservatively to the far heap (for
// example one scheduled before the window start after a window jump)
// still fires in exact timestamp order.
const (
	ladShift   = 20                               // bucket width: 1<<20 ns ≈ 1.05 ms
	ladWidth   = Duration(1) << ladShift          //
	ladBuckets = 512                              // buckets per window
	ladWindow  = Duration(ladBuckets) << ladShift // ≈ 537 ms of virtual time
)

// Queue-position markers stored in event.heapPos. Non-negative values
// are far-heap positions.
const (
	posFree = -1 // not queued: free slot, or popped and firing
	posNear = -2 // queued in a near-tier bucket
)

// postClass is the ord-space bit that places an event in the post-tick
// class: at equal timestamps every post-class event fires after every
// ordinary one, because ordinary ords are schedule-counter values that
// never reach 1<<63.
const postClass = uint64(1) << 63

// ladEntry is one near-tier bucket entry. It is self-contained — at and
// ord are copied in — so sorting a bucket never touches the slab and a
// stale entry (its slot cancelled and possibly recycled) still has a
// deterministic sort position; staleness is detected at drain time by
// comparing the generation stamp.
type ladEntry struct {
	at   Time
	ord  uint64
	slot int32
	gen  uint32
}

// event is one slot of the engine's event slab. A slot is either live
// (scheduled, heapPos != posFree), firing (popped, fields being
// consumed) or free (linked into the free list through nextFree). The
// generation counter increments every time a slot is released, so an
// EventRef into a recycled slot can never cancel its successor.
//
// Exactly one of fn/call is set: fn is the classic closure handler,
// call+arg the closure-free path (ScheduleCall).
type event struct {
	at       Time
	ord      uint64 // tie-break at equal timestamps: schedule counter, or post-class key
	gen      uint32
	heapPos  int32 // far-heap position, or posNear / posFree
	nextFree int32 // free-list link, meaningful only for free slots
	// remaining counts the live near-tier entries sharing this slot.
	// Ordinary events leave it at 0 (exactly one entry references the
	// slot); a PostBatch slot carries one ladEntry per member, and the
	// slot is released only when the last member fires.
	remaining int32
	fn        Handler
	call      func(arg any)
	arg       any
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// value is inert. A ref stays valid after its event fired, was cancelled
// or its slab slot was recycled: Cancel and Pending compare the slot's
// generation stamp and degrade to no-ops on a mismatch.
type EventRef struct {
	engine *Engine
	slot   int32
	gen    uint32
}

// Cancel prevents the referenced event from firing. Cancelling an event
// that already fired or was already cancelled is a no-op. It reports
// whether the event was actually cancelled.
func (r EventRef) Cancel() bool {
	if r.engine == nil {
		return false
	}
	e := r.engine
	if int(r.slot) >= len(e.slab) {
		return false
	}
	ev := &e.slab[r.slot]
	if ev.gen != r.gen || ev.heapPos == posFree {
		return false
	}
	if ev.heapPos >= 0 {
		e.heapRemove(int(ev.heapPos))
	}
	// A near-tier event leaves its bucket entry behind; freeing the slot
	// bumps the generation, so the drain cursor skips the stale entry.
	e.count--
	e.freeSlot(r.slot)
	return true
}

// Pending reports whether the referenced event is still scheduled.
func (r EventRef) Pending() bool {
	if r.engine == nil || int(r.slot) >= len(r.engine.slab) {
		return false
	}
	ev := &r.engine.slab[r.slot]
	return ev.gen == r.gen && ev.heapPos != posFree
}

// Engine is a discrete event simulation engine: a virtual clock plus an
// ordered queue of pending events. It is not safe for concurrent use; a
// simulation is a single-threaded deterministic computation.
//
// Events live in a slab ([]event) so scheduling performs no per-event
// allocation: slots are recycled through a free list and guarded by
// generation stamps (see EventRef). The queue itself is the two-tier
// ladder described above; Cancel is O(1) for near events and O(log n)
// for far ones, and Len is O(1) via a live-event counter.
type Engine struct {
	now  Time
	slab []event

	// Near tier.
	winStart  Time
	winEnd    Time
	buckets   [][]ladEntry
	occupied  [ladBuckets / 64]uint64 // bit per non-empty bucket
	cur       int                     // bucket the drain cursor is on
	curPos    int                     // consumption position within buckets[cur]
	curSorted bool                    // buckets[cur] has been sorted and is being drained

	// Far tier.
	heap []int32 // slot numbers ordered by (at, seq)

	freeHead int32 // head of the free-slot list, -1 when empty
	seq      uint64
	count    int // live (scheduled, uncancelled, unfired) events
	stopped  bool
	// Executed counts events that have fired; useful for progress
	// reporting and as a runaway guard in tests.
	Executed uint64
	// MaxEvents aborts Run with an error when more than this many events
	// fire (0 = unlimited). A safety net against non-terminating
	// simulations in tests.
	MaxEvents uint64

	// interrupted is the only cross-goroutine input to the otherwise
	// single-threaded engine: a wall-clock watchdog sets it via
	// Interrupt and Run aborts with ErrInterrupted at the next event
	// boundary. It stays set (Run must not resume a killed run's next
	// horizon slice) until Reset or ClearInterrupt.
	interrupted atomic.Bool
}

// ErrInterrupted is returned by Run after Interrupt: the simulation was
// killed from outside (a wall-clock watchdog), not finished. Detect it
// with errors.Is.
var ErrInterrupted = errors.New("sim: run interrupted")

// Interrupt makes any in-progress or future Run return ErrInterrupted
// at the next event boundary. Unlike Stop it is safe to call from
// another goroutine, and it is sticky: the engine stays interrupted
// across horizon slices until Reset or ClearInterrupt, so a watchdog
// firing between two slices still kills the run.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// ClearInterrupt re-arms an interrupted engine (Reset also clears).
func (e *Engine) ClearInterrupt() { e.interrupted.Store(false) }

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		freeHead: -1,
		winEnd:   Time(0).Add(ladWindow),
		buckets:  make([][]ladEntry, ladBuckets),
	}
}

// Reset returns the engine to its initial state (clock at zero, empty
// queue) while keeping the slab, bucket and heap capacity, so a pooled
// engine re-runs without re-growing its buffers. Every slot's generation
// is bumped, invalidating all EventRefs handed out before the reset.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.count = 0
	e.stopped = false
	e.interrupted.Store(false)
	e.Executed = 0
	e.winStart = 0
	e.winEnd = Time(0).Add(ladWindow)
	e.cur = 0
	e.curPos = 0
	e.curSorted = false
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0]
	}
	e.occupied = [ladBuckets / 64]uint64{}
	e.heap = e.heap[:0]
	e.freeHead = -1
	for i := range e.slab {
		ev := &e.slab[i]
		ev.gen++
		ev.heapPos = posFree
		ev.remaining = 0
		ev.fn = nil
		ev.call = nil
		ev.arg = nil
		ev.nextFree = e.freeHead
		e.freeHead = int32(i)
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending events — O(1), cancelled events are
// discounted immediately.
func (e *Engine) Len() int { return e.count }

// Schedule queues fn to run after delay d (>= 0) of virtual time and
// returns a reference usable to cancel it. Scheduling in the past panics:
// it is always a harness bug.
func (e *Engine) Schedule(d Duration, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt queues fn to run at absolute virtual time t (>= Now).
func (e *Engine) ScheduleAt(t Time, fn Handler) EventRef {
	if fn == nil {
		panic("sim: nil handler")
	}
	e.seq++
	return e.push(t, e.seq, fn, nil, nil)
}

// ScheduleCall queues fn(arg) to run after delay d of virtual time.
// This is the closure-free scheduling path: fn is typically a
// package-level function or a method value hoisted once per component,
// and arg carries the per-event state, so the call allocates nothing
// beyond what the caller chose for arg (a pooled pointer is free).
func (e *Engine) ScheduleCall(d Duration, fn func(arg any), arg any) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.ScheduleCallAt(e.now.Add(d), fn, arg)
}

// ScheduleCallAt queues fn(arg) at absolute virtual time t (>= Now).
func (e *Engine) ScheduleCallAt(t Time, fn func(arg any), arg any) EventRef {
	if fn == nil {
		panic("sim: nil handler")
	}
	e.seq++
	return e.push(t, e.seq, nil, fn, arg)
}

// SchedulePostCallAt queues fn(arg) at absolute virtual time t in the
// post-tick class: at equal timestamps post-class events fire after
// every ordinary event, ordered among themselves by the caller-supplied
// key (which must be unique per (t, key) pair and below 1<<63).
//
// Unlike the schedule-counter tie-break of the ordinary paths, the
// resulting same-tick order is a pure function of (t, key) — it does
// not depend on the order in which the events were pushed. netsim keys
// inter-cluster deliveries by (pipe, sequence), so their same-tick
// order is a function of wire content alone: that is what lets a
// PostBatch and N standalone calls produce byte-identical runs.
func (e *Engine) SchedulePostCallAt(t Time, key uint64, fn func(arg any), arg any) EventRef {
	if fn == nil {
		panic("sim: nil handler")
	}
	if key >= postClass {
		panic(fmt.Sprintf("sim: post-class key %#x overflows", key))
	}
	return e.push(t, postClass|key, nil, fn, arg)
}

// PostBatch schedules a group of post-class events that share one slab
// slot and one handler invocation target: N members cost one slot claim
// plus N O(1) bucket appends instead of N full schedule passes, and the
// slab never grows with the batch. Each member still fires at exactly
// its own (t, key) position in the global order — batching changes the
// scheduling mechanics, never the schedule — so runs are byte-identical
// to N SchedulePostCallAt calls with the same arguments.
//
// Contract: members must be added in non-decreasing (t, key) order
// (per-batch), every t must be >= Now at Add time, and keys follow the
// SchedulePostCallAt uniqueness rule. Because the keys are unique and
// monotone within the batch, the members' global fire order equals
// their Add order; the shared handler is invoked once per member, with
// the batch's arg, and must consume members in that order. Members are
// not individually cancellable.
type PostBatch struct {
	e    *Engine
	call func(arg any)
	arg  any
	slot int32 // shared slab slot, -1 until the first near-tier member
	gen  uint32
}

// NewPostBatch returns an empty batch firing fn(arg) once per member.
func (e *Engine) NewPostBatch(fn func(arg any), arg any) PostBatch {
	if fn == nil {
		panic("sim: nil handler")
	}
	return PostBatch{e: e, call: fn, arg: arg, slot: -1}
}

// Add schedules one member at absolute time t with post-class key key.
func (b *PostBatch) Add(t Time, key uint64) {
	e := b.e
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if key >= postClass {
		panic(fmt.Sprintf("sim: post-class key %#x overflows", key))
	}
	ord := postClass | key
	if t >= e.winStart && t < e.winEnd {
		if idx := int((t - e.winStart) >> ladShift); idx >= e.cur {
			slot := b.slot
			if slot < 0 || e.slab[slot].gen != b.gen {
				// First near-tier member (or the previous members all
				// fired already and the slot was recycled): claim the
				// shared slot. Its at/ord fields hold the first member's
				// position, but the drain path reads positions from the
				// ladder entries, so later members never see them stale.
				slot = e.claimSlot()
				ev := &e.slab[slot]
				ev.at = t
				ev.ord = ord
				ev.fn = nil
				ev.call = b.call
				ev.arg = b.arg
				ev.heapPos = posNear
				ev.remaining = 0
				b.slot = slot
				b.gen = ev.gen
			}
			e.slab[slot].remaining++
			e.count++
			ent := ladEntry{at: t, ord: ord, slot: slot, gen: b.gen}
			if idx == e.cur && e.curSorted {
				e.insertSorted(ent)
			} else {
				e.buckets[idx] = append(e.buckets[idx], ent)
			}
			e.occupied[idx>>6] |= 1 << uint(idx&63)
			return
		}
	}
	// Outside the near window (or behind the drain cursor): fall back to
	// a standalone far-tier slot sharing the batch's handler and arg.
	// The far heap backrefs one position per slot, so far members cannot
	// share; global (at, ord) ordering still fires them in Add order.
	e.push(t, ord, nil, b.call, b.arg)
}

// claimSlot takes a slot off the free list (or grows the slab).
func (e *Engine) claimSlot() int32 {
	if e.freeHead >= 0 {
		slot := e.freeHead
		e.freeHead = e.slab[slot].nextFree
		return slot
	}
	e.slab = append(e.slab, event{})
	return int32(len(e.slab) - 1)
}

// push allocates a slab slot and routes the event to its tier.
func (e *Engine) push(t Time, ord uint64, fn Handler, call func(any), arg any) EventRef {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	slot := e.claimSlot()
	ev := &e.slab[slot]
	ev.at = t
	ev.ord = ord
	ev.fn = fn
	ev.call = call
	ev.arg = arg
	e.count++

	if t >= e.winStart && t < e.winEnd {
		if idx := int((t - e.winStart) >> ladShift); idx >= e.cur {
			ev.heapPos = posNear
			ent := ladEntry{at: t, ord: ev.ord, slot: slot, gen: ev.gen}
			if idx == e.cur && e.curSorted {
				e.insertSorted(ent)
			} else {
				e.buckets[idx] = append(e.buckets[idx], ent)
			}
			e.occupied[idx>>6] |= 1 << uint(idx&63)
			return EventRef{engine: e, slot: slot, gen: ev.gen}
		}
		// The drain cursor already passed this bucket (possible only
		// after the clock lagged a window jump): spill to the far heap,
		// whose head is compared against the near tier on every pop.
	}
	ev.heapPos = int32(len(e.heap))
	e.heap = append(e.heap, slot)
	e.siftUp(len(e.heap) - 1)
	return EventRef{engine: e, slot: slot, gen: ev.gen}
}

// insertSorted places ent into the bucket currently being drained,
// keeping [curPos:] sorted by the full (at, ord) key. An ordinary entry
// carries the largest schedule-counter ord handed out so far, so it
// lands after every ordinary entry with the same timestamp (FIFO within
// the tick) yet before any post-class entry at that timestamp; a
// post-class entry lands at its key's position among the other
// post-class entries of the tick. Either way the position is never
// before the drain cursor: ent.at >= now, every drained entry has
// at <= now, and at == now drained entries are ordinary ones whose ord
// is below ent's (new ordinary ords are maximal; post-class ords have
// the top bit set).
func (e *Engine) insertSorted(ent ladEntry) {
	b := e.buckets[e.cur]
	lo, hi := e.curPos, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].at < ent.at || (b[mid].at == ent.at && b[mid].ord < ent.ord) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, ladEntry{})
	copy(b[lo+1:], b[lo:])
	b[lo] = ent
	e.buckets[e.cur] = b
}

// freeSlot releases a slot back to the free list, bumping its
// generation so outstanding refs become inert, and dropping handler and
// argument references so the slab does not retain dead payloads.
func (e *Engine) freeSlot(slot int32) {
	ev := &e.slab[slot]
	ev.gen++
	ev.heapPos = posFree
	ev.remaining = 0
	ev.fn = nil
	ev.call = nil
	ev.arg = nil
	ev.nextFree = e.freeHead
	e.freeHead = slot
}

// nearPeek advances the drain cursor to the next live near-tier entry
// and returns it, sorting each bucket on first touch and skipping
// entries whose slot was cancelled (generation mismatch). The occupancy
// bitmap jumps the cursor straight to the next non-empty bucket, so an
// empty window costs a handful of word scans, not a bucket walk. It
// returns false once the window is exhausted.
func (e *Engine) nearPeek() (*ladEntry, bool) {
	for {
		if !e.curSorted {
			idx := e.nextOccupied(e.cur)
			if idx < 0 {
				e.cur = ladBuckets
				return nil, false
			}
			e.cur = idx
			sortEntries(e.buckets[idx])
			e.curSorted = true
			e.curPos = 0
		}
		for e.curPos < len(e.buckets[e.cur]) {
			ent := &e.buckets[e.cur][e.curPos]
			if e.slab[ent.slot].gen == ent.gen {
				return ent, true
			}
			e.curPos++ // stale: cancelled after sorting
		}
		e.buckets[e.cur] = e.buckets[e.cur][:0]
		e.occupied[e.cur>>6] &^= 1 << uint(e.cur&63)
		e.curSorted = false
		e.cur++
	}
}

// nextOccupied returns the first non-empty bucket index >= from, or -1.
func (e *Engine) nextOccupied(from int) int {
	if from >= ladBuckets {
		return -1
	}
	w := from >> 6
	word := e.occupied[w] >> uint(from&63) << uint(from&63)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(e.occupied) {
			return -1
		}
		word = e.occupied[w]
	}
}

// refill jumps the window to the earliest far event and migrates every
// far event inside the new window into the buckets. Called only with
// the near tier empty and the far heap non-empty.
func (e *Engine) refill() {
	top := &e.slab[e.heap[0]]
	e.winStart = top.at
	e.winEnd = top.at.Add(ladWindow)
	e.cur = 0
	e.curPos = 0
	e.curSorted = false
	for len(e.heap) > 0 {
		slot := e.heap[0]
		ev := &e.slab[slot]
		if ev.at >= e.winEnd {
			break
		}
		e.heapRemove(0)
		ev.heapPos = posNear
		idx := int((ev.at - e.winStart) >> ladShift)
		e.buckets[idx] = append(e.buckets[idx],
			ladEntry{at: ev.at, ord: ev.ord, slot: slot, gen: ev.gen})
		e.occupied[idx>>6] |= 1 << uint(idx&63)
	}
}

// next returns the slot of the earliest pending event, comparing the
// heads of both tiers by (at, ord), without consuming it. fromNear
// reports which tier holds it. at is the event's timestamp taken from
// the queue entry, not the slab: a PostBatch slot is shared by several
// entries and its slab at reflects only the first member.
func (e *Engine) next() (slot int32, at Time, fromNear, ok bool) {
	ne, okN := e.nearPeek()
	if !okN && len(e.heap) > 0 {
		e.refill()
		ne, okN = e.nearPeek()
	}
	if !okN {
		if len(e.heap) == 0 {
			return 0, 0, false, false
		}
		s := e.heap[0]
		return s, e.slab[s].at, false, true
	}
	if len(e.heap) > 0 {
		s := e.heap[0]
		f := &e.slab[s]
		if f.at < ne.at || (f.at == ne.at && f.ord < ne.ord) {
			return s, f.at, false, true
		}
	}
	return ne.slot, ne.at, true, true
}

// popNext consumes the event returned by next.
func (e *Engine) popNext(slot int32, fromNear bool) {
	if fromNear {
		e.curPos++
		return
	}
	e.heapRemove(int(e.slab[slot].heapPos))
}

// fire executes the event in slot: advance the clock, release the slot
// (so a ref to the firing event reads "no longer pending" and the slot
// can be recycled by whatever the handler schedules), then invoke the
// handler.
//
// Unlike Cancel's freeSlot, the fire path leaves the stale handler and
// argument words in the slot: the next push overwrites them, and
// skipping the three interface-field nil stores per event removes the
// write barriers from the hottest loop of the simulator. The payload a
// slot can transitively retain between fire and reuse is one handler's
// worth — bounded and short-lived; Cancel and Reset still clear, so
// cancelled events and pooled engines drop their payloads eagerly.
func (e *Engine) fire(slot int32, at Time) {
	ev := &e.slab[slot]
	e.now = at
	e.Executed++
	e.count--
	fn, call, arg := ev.fn, ev.call, ev.arg
	if ev.remaining > 1 {
		// A PostBatch slot with members still queued: keep it live.
		ev.remaining--
	} else {
		ev.remaining = 0
		ev.gen++
		ev.heapPos = posFree
		ev.nextFree = e.freeHead
		e.freeHead = slot
	}
	if fn != nil {
		fn(e)
	} else {
		call(arg)
	}
}

// ---- far tier: typed binary heap over slab slots, ordered by (at, ord) ----

func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.slab[a], &e.slab[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.ord < eb.ord
}

func (e *Engine) swap(i, j int) {
	h := e.heap
	h[i], h[j] = h[j], h[i]
	e.slab[h[i]].heapPos = int32(i)
	e.slab[h[j]].heapPos = int32(j)
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(e.heap[i], e.heap[parent]) {
			return
		}
		e.swap(i, parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && e.less(e.heap[right], e.heap[left]) {
			least = right
		}
		if !e.less(e.heap[least], e.heap[i]) {
			return
		}
		e.swap(i, least)
		i = least
	}
}

// heapRemove deletes the entry at heap position i.
func (e *Engine) heapRemove(i int) {
	last := len(e.heap) - 1
	if i != last {
		e.swap(i, last)
	}
	e.slab[e.heap[last]].heapPos = posFree
	e.heap = e.heap[:last]
	if i < last {
		e.siftDown(i)
		e.siftUp(i)
	}
}

// sortEntries orders a bucket by (at, ord). The keys are unique —
// ordinary ords come from the schedule counter, post-class ords are
// unique by the SchedulePostCallAt contract, and the two classes are
// separated by the top bit — so the unstable stdlib pdqsort is
// deterministic and stability is irrelevant; it allocates nothing.
func sortEntries(b []ladEntry) {
	slices.SortFunc(b, func(x, y ladEntry) int {
		if x.at != y.at {
			if x.at < y.at {
				return -1
			}
			return 1
		}
		if x.ord < y.ord {
			return -1
		}
		return 1
	})
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next pending event, if any, and reports whether one
// fired.
func (e *Engine) Step() bool {
	slot, at, fromNear, ok := e.next()
	if !ok {
		return false
	}
	e.popNext(slot, fromNear)
	e.fire(slot, at)
	return true
}

// Run executes events in timestamp order until the queue is empty, Stop
// is called, or the horizon (if > 0) is passed. Events scheduled beyond
// the horizon remain queued. It returns the virtual time at which the
// simulation stopped.
//
// Same-timestamp events are drained in one batched dispatch loop: after
// an event from the near tier fires, every following live entry of its
// bucket with the same timestamp fires back-to-back — in (at, ord)
// order, as the sorted bucket and the ord-ordered insertions guarantee
// — without re-running the two-tier head comparison. No far event can
// share that timestamp: far events are either beyond the window or
// strictly earlier than every bucketed one, so the batch never
// reorders across tiers.
func (e *Engine) Run(horizon Time) (Time, error) {
	e.stopped = false
	for !e.stopped {
		if e.interrupted.Load() {
			return e.now, ErrInterrupted
		}
		if e.MaxEvents > 0 && e.Executed >= e.MaxEvents {
			return e.now, fmt.Errorf("sim: exceeded MaxEvents=%d at t=%v", e.MaxEvents, e.now)
		}
		slot, at, fromNear, ok := e.next()
		if !ok {
			break
		}
		if horizon > 0 && at > horizon {
			e.now = horizon
			break
		}
		e.popNext(slot, fromNear)
		e.fire(slot, at)
		if !fromNear {
			continue
		}
		// Batched same-tick dispatch within the current bucket.
		for !e.stopped && (e.MaxEvents == 0 || e.Executed < e.MaxEvents) && !e.interrupted.Load() {
			b := e.buckets[e.cur]
			if e.curPos >= len(b) {
				break
			}
			ent := &b[e.curPos]
			if ent.at != e.now {
				break
			}
			s := ent.slot
			if e.slab[s].gen != ent.gen {
				e.curPos++
				continue
			}
			e.curPos++
			e.fire(s, e.now)
		}
	}
	return e.now, nil
}

// RunAll runs until the event queue drains, with no horizon.
func (e *Engine) RunAll() (Time, error) { return e.Run(0) }

// Timer is a resettable one-shot virtual timer built on the engine, used
// for the protocol's periodic actions (unforced CLC timer, GC timer).
// The zero value is unarmed.
type Timer struct {
	engine *Engine
	ref    EventRef
	fn     Handler
}

// NewTimer returns an unarmed timer firing fn when it expires.
func NewTimer(e *Engine, fn Handler) *Timer { return &Timer{engine: e, fn: fn} }

// Reset (re)arms the timer to fire after d. A duration >= Forever leaves
// the timer unarmed, matching the paper's "timer set to infinite".
func (t *Timer) Reset(d Duration) {
	t.ref.Cancel()
	if d >= Forever {
		return
	}
	t.ref = t.engine.Schedule(d, t.fn)
}

// Stop disarms the timer.
func (t *Timer) Stop() { t.ref.Cancel() }

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.ref.Pending() }
