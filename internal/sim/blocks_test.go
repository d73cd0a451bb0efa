package sim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// wide is a 1 KiB element, so a block holds 64 of them and short
// operation sequences cross block boundaries. v identifies the element;
// p makes a slot that was not zeroed keep something alive.
type wide struct {
	v   int
	p   *int
	pad [1008]byte
}

func mk(v int) wide { return wide{v: v, p: &v} }

// checkBlocks holds b against the model: the same elements in order
// (through At, AppendTo and Len), the layout invariants of Blocks, and
// every slot outside the list — dropped, truncated or spare — zero.
func checkBlocks[T any](b *Blocks[T], model []int, val func(*T) int) error {
	if b.Len() != len(model) {
		return fmt.Errorf("Len %d, model %d", b.Len(), len(model))
	}
	for i, want := range model {
		if got := val(b.At(i)); got != want {
			return fmt.Errorf("At(%d) = %d, model %d", i, got, want)
		}
	}
	out := b.AppendTo(nil)
	if len(out) != len(model) {
		return fmt.Errorf("AppendTo gave %d elements, model %d", len(out), len(model))
	}
	for i := range out {
		if got := val(&out[i]); got != model[i] {
			return fmt.Errorf("AppendTo[%d] = %d, model %d", i, got, model[i])
		}
	}
	bl := blockLen[T]()
	if cap(b.head) > bl {
		return fmt.Errorf("head capacity %d past one block of %d", cap(b.head), bl)
	}
	if len(b.tail) == 0 {
		if b.off != 0 {
			return fmt.Errorf("one block with %d dropped slots at its front", b.off)
		}
	} else {
		if len(b.head) != bl {
			return fmt.Errorf("head holds %d slots in front of further blocks, block length %d", len(b.head), bl)
		}
		for i, blk := range b.tail {
			if cap(blk) != bl || len(blk) == 0 || (i < len(b.tail)-1 && len(blk) != bl) {
				return fmt.Errorf("block %d of %d is %d/%d full", i+1, len(b.tail), len(blk), cap(blk))
			}
		}
	}
	var zero T
	bytesOf := func(p *T) string {
		return string(unsafe.Slice((*byte)(unsafe.Pointer(p)), unsafe.Sizeof(zero)))
	}
	isZero := func(p *T) bool { return bytesOf(p) == bytesOf(&zero) }
	zeroed := func(what string, s []T) error {
		for i := range s {
			if !isZero(&s[i]) {
				return fmt.Errorf("%s slot %d is not zeroed", what, i)
			}
		}
		return nil
	}
	if err := zeroed("dropped head", b.head[:b.off]); err != nil {
		return err
	}
	if err := zeroed("free head", b.head[len(b.head):cap(b.head)]); err != nil {
		return err
	}
	for _, blk := range b.tail {
		if err := zeroed("free block", blk[len(blk):cap(blk)]); err != nil {
			return err
		}
	}
	spares := b.tail[len(b.tail):cap(b.tail)]
	for i, blk := range spares {
		if blk == nil {
			if slices.ContainsFunc(spares[i:], func(s []T) bool { return s != nil }) {
				return fmt.Errorf("spare stack has a gap at %d", i)
			}
			break
		}
		if len(blk) != 0 || cap(blk) != bl {
			return fmt.Errorf("spare block %d is %d/%d", i, len(blk), cap(blk))
		}
		if err := zeroed("spare block", blk[:cap(blk)]); err != nil {
			return err
		}
	}
	return nil
}

// FuzzBlocks runs Append/DropFront/Truncate/Filter/Insert/At sequences
// on a Blocks list and a plain slice side by side. Elements are 1 KiB,
// so the sequences cross the one-block boundary in both directions.
func FuzzBlocks(f *testing.F) {
	f.Add([]byte{0, 200, 0, 200, 1, 250, 2, 10, 0, 90})
	f.Add([]byte{0, 255, 0, 255, 0, 255, 3, 7, 1, 100, 4, 9, 2, 200, 0, 255, 1, 255})
	f.Add([]byte{0, 130, 4, 0, 4, 255, 5, 3, 2, 0, 0, 64, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var b Blocks[wide]
		var model []int
		next := 0
		val := func(w *wide) int {
			if w.p == nil || *w.p != w.v {
				return -1
			}
			return w.v
		}
		for k := 0; k+1 < len(ops); k += 2 {
			arg := int(ops[k+1])
			scaled := len(model) * arg / 255
			switch ops[k] % 6 {
			case 0: // append up to 160 (2.5 blocks)
				for j := 0; j < arg*160/255+1; j++ {
					b.Append(mk(next))
					model = append(model, next)
					next++
				}
			case 1:
				b.DropFront(scaled)
				model = model[scaled:]
			case 2:
				b.Truncate(scaled)
				model = model[:scaled]
			case 3: // drop the elements whose value is divisible by m
				m := arg%5 + 2
				b.Filter(func(w *wide) bool { return w.v%m != 0 })
				model = slices.DeleteFunc(model, func(v int) bool { return v%m == 0 })
			case 4:
				b.Insert(scaled, mk(next))
				model = slices.Insert(model, scaled, next)
				next++
			case 5:
				if len(model) > 0 {
					i := arg % len(model)
					if got := val(b.At(i)); got != model[i] {
						t.Fatalf("op %d: At(%d) = %d, model %d", k/2, i, got, model[i])
					}
				}
			}
			if err := checkBlocks(&b, model, val); err != nil {
				t.Fatalf("op %d (%d, %d): %v", k/2, ops[k]%6, arg, err)
			}
		}
	})
}

// TestBlocksZeroesDropped: every slot a drop, a truncation or a filter
// removes is zeroed, in the one-block and the multi-block layout, and
// blocks returned to the spare stack hold nothing.
func TestBlocksZeroesDropped(t *testing.T) {
	bl := blockLen[wide]()
	var b Blocks[wide]
	var model []int
	val := func(w *wide) int { return w.v }
	step := func(what string, mutate func()) {
		t.Helper()
		mutate()
		if err := checkBlocks(&b, model, val); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			v := len(model) + 1000*i
			b.Append(mk(v))
			model = append(model, v)
		}
	}
	step("one block", func() { appendN(bl / 2) })
	step("front of one block", func() { b.DropFront(3); model = model[3:] })
	step("back of one block", func() { b.Truncate(len(model) - 2); model = model[:len(model)-2] })
	step("four blocks", func() { appendN(3*bl + 5) })
	step("front inside the first block", func() { b.DropFront(5); model = model[5:] })
	step("two whole blocks from the front", func() { b.DropFront(2 * bl); model = model[2*bl:] })
	step("refill from the spares", func() { appendN(2 * bl) })
	step("back across blocks", func() { b.Truncate(bl + 1); model = model[:bl+1] })
	step("filter", func() {
		b.Filter(func(w *wide) bool { return w.v%3 != 0 })
		model = slices.DeleteFunc(model, func(v int) bool { return v%3 == 0 })
	})
	step("empty", func() { b.Truncate(0); model = model[:0] })
	if b.Len() != 0 || cap(b.head) != bl {
		t.Fatalf("emptied list: Len %d, head capacity %d, want 0 and one block (%d)", b.Len(), cap(b.head), bl)
	}
}

// TestBlocksSteadyState: a list held at a fixed depth past one block by
// appending at the back and dropping at the front allocates nothing —
// whole blocks cycle through the spare stack.
func TestBlocksSteadyState(t *testing.T) {
	bl := blockLen[int64]()
	var b Blocks[int64]
	depth := 3*bl + bl/2
	for i := 0; i < depth; i++ {
		b.Append(int64(i))
	}
	cycle := func() {
		for i := 0; i < bl; i++ { // one block's worth: crosses a boundary
			b.Append(int64(i))
			b.DropFront(1)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a fixed-depth append/drop cycle allocates %v times per %d steps", allocs, bl)
	}
	if b.Len() != depth {
		t.Fatalf("depth drifted to %d, want %d", b.Len(), depth)
	}
}

var sinkPoints []point

// TestBlocksShortListIsASlice: a list that stays within one block
// allocates exactly what the same appends to a slice allocate.
func TestBlocksShortListIsASlice(t *testing.T) {
	for _, n := range []int{1, 7, 300, 2000} {
		want := testing.AllocsPerRun(10, func() {
			var s []point
			for i := 0; i < n; i++ {
				s = append(s, point{Time(i), 1})
			}
			sinkPoints = s // on the heap, as a list's head is
		})
		got := testing.AllocsPerRun(10, func() {
			var b Blocks[point]
			for i := 0; i < n; i++ {
				b.Append(point{Time(i), 1})
			}
		})
		if got != want {
			t.Errorf("%d points: %v allocations, a slice makes %v", n, got, want)
		}
	}
}

// TestSeriesPoints: a series recorded past one block reads back every
// point in order, and At finds the last value at or before a time.
func TestSeriesPoints(t *testing.T) {
	var s Series
	n := 3*blockLen[point]() + 17
	for i := 0; i < n; i++ {
		s.Record(Time(10*i), float64(i))
	}
	if s.Len() != n {
		t.Fatalf("Len %d, want %d", s.Len(), n)
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if at, v := s.Point(i); at != Time(10*i) || v != float64(i) {
			t.Fatalf("Point(%d) = (%v, %v)", i, at, v)
		}
		if v := s.At(Time(10*i + 5)); v != float64(i) {
			t.Fatalf("At(%d) = %v, want %d", 10*i+5, v, i)
		}
	}
}
