package sim

import "unsafe"

// blockBytes bounds the size of one block of a Blocks list. Below it a
// list is a plain slice; past it the list is chained from blocks of
// exactly this many bytes' worth of elements (rounded down). 64 KiB
// blocks are large objects to the Go allocator — whole pages, freed and
// reused as spans of their own — so a run that drops and refills
// histories does not leave its garbage in many small spans.
const blockBytes = 64 << 10

// blockLen is the number of elements in one block of a Blocks[T].
func blockLen[T any]() int {
	var zero T
	return blockBytes / max(1, int(unsafe.Sizeof(zero)))
}

// Blocks is an ordered list of T for histories that grow at the back,
// are cut at the front (a garbage collection) or at the back (a
// rollback), and may grow long between two cuts.
//
// While the list fits in one block it is a plain slice (head), grown by
// append, so a short list costs what a slice costs. Once that block is
// full, further elements go to fixed-size blocks of the same length
// (tail): appending never copies what is stored, and cutting whole
// blocks at either end moves them to a spare stack that later appends
// take from before they allocate. A cut that leaves one block compacts
// it by copying, as a slice would. Every dropped slot is zeroed, so the
// list never keeps alive what it no longer holds.
//
// The zero value is an empty list. Pointers returned by At stay valid
// until the next mutation.
type Blocks[T any] struct {
	// head is the first block; while tail is empty it is the whole list.
	head []T
	// off counts the dropped (zeroed) slots at the front of head; it is
	// 0 while tail is empty.
	off int
	// tail holds the blocks after head, each full but the last, which
	// holds at least one element. tail[len(tail):cap(tail)] is the
	// spare stack: emptied blocks, then nil slots.
	tail [][]T
}

// Len returns the number of elements.
func (b *Blocks[T]) Len() int {
	if len(b.tail) == 0 {
		return len(b.head)
	}
	return len(b.head)*len(b.tail) - b.off + len(b.tail[len(b.tail)-1])
}

// At returns a pointer to element i, which must be in [0, Len()).
func (b *Blocks[T]) At(i int) *T {
	if len(b.tail) == 0 {
		return &b.head[i]
	}
	if i < 0 {
		panic("sim: Blocks index out of range")
	}
	i += b.off
	bl := len(b.head)
	if i < bl {
		return &b.head[i]
	}
	i -= bl
	return &b.tail[i/bl][i%bl]
}

// Append adds v at the back.
func (b *Blocks[T]) Append(v T) {
	if len(b.tail) == 0 {
		if len(b.head) < cap(b.head) {
			b.head = append(b.head, v)
			return
		}
	} else if last := &b.tail[len(b.tail)-1]; len(*last) < cap(*last) {
		*last = append(*last, v)
		return
	}
	b.grow(v)
}

// grow appends v when the last block has no free slot.
func (b *Blocks[T]) grow(v T) {
	bl := blockLen[T]()
	if len(b.tail) == 0 && len(b.head) < bl {
		// The first block grows as a slice would, but no further than
		// one block: when append's next capacity (2x below 256, then
		// 1.25x plus 192) would reach it, allocate exactly one block.
		c := cap(b.head)
		next := 2 * c
		if c >= 256 {
			next = c + (c+768)/4
		}
		if next >= bl {
			h := make([]T, len(b.head), bl)
			copy(h, b.head)
			b.head = h
		}
		b.head = append(b.head, v)
		return
	}
	if l := len(b.tail); l < cap(b.tail) && b.tail[:l+1][l] != nil {
		b.tail = b.tail[:l+1] // a spare block
	} else {
		b.tail = append(b.tail, make([]T, 0, bl))
	}
	last := &b.tail[len(b.tail)-1]
	*last = append(*last, v)
}

// DropFront removes the first k elements.
func (b *Blocks[T]) DropFront(k int) {
	for len(b.tail) > 0 && k > 0 {
		m := min(k, len(b.head)-b.off)
		clear(b.head[b.off : b.off+m])
		b.off += m
		k -= m
		if b.off == len(b.head) {
			// head is empty: it goes to the spare stack, the next block
			// becomes head.
			old := b.head[:0]
			l := len(b.tail)
			b.head = b.tail[0]
			copy(b.tail, b.tail[1:])
			b.tail[l-1] = old
			b.tail = b.tail[:l-1]
			b.off = 0
		}
	}
	if len(b.tail) == 0 && b.off+k > 0 {
		b.compact(b.off + k)
	}
}

// compact removes head's first k slots by copying the rest down.
func (b *Blocks[T]) compact(k int) {
	kept := copy(b.head, b.head[k:])
	clear(b.head[kept:])
	b.head = b.head[:kept]
	b.off = 0
}

// Truncate keeps the first n elements and removes the rest.
func (b *Blocks[T]) Truncate(n int) {
	if len(b.tail) == 0 {
		clear(b.head[n:])
		b.head = b.head[:n]
		return
	}
	if n < 0 || n > b.Len() {
		panic("sim: Blocks truncated out of range")
	}
	bl := len(b.head)
	end := b.off + n           // the cut, counted from head's first slot
	keep := max(0, end-1) / bl // tail blocks holding slots before the cut
	for i := keep; i < len(b.tail); i++ {
		clear(b.tail[i])
		b.tail[i] = b.tail[i][:0]
	}
	b.tail = b.tail[:keep]
	if keep > 0 {
		last := &b.tail[keep-1]
		r := end - bl*keep
		clear((*last)[r:])
		*last = (*last)[:r]
		return
	}
	clear(b.head[end:])
	b.head = b.head[:end]
	if b.off > 0 {
		b.compact(b.off)
	}
}

// Filter keeps, in order, the elements keep accepts and removes the
// rest. keep sees every element once, front to back.
func (b *Blocks[T]) Filter(keep func(*T) bool) {
	n, w := b.Len(), 0
	for i := 0; i < n; i++ {
		p := b.At(i)
		if !keep(p) {
			continue
		}
		if w != i {
			*b.At(w) = *p
		}
		w++
	}
	b.Truncate(w)
}

// Insert puts v at position i, in [0, Len()], moving the elements from
// i on one place back.
func (b *Blocks[T]) Insert(i int, v T) {
	var zero T
	b.Append(zero)
	if len(b.tail) == 0 {
		copy(b.head[i+1:], b.head[i:])
		b.head[i] = v
		return
	}
	for j := b.Len() - 1; j > i; j-- {
		*b.At(j) = *b.At(j - 1)
	}
	*b.At(i) = v
}

// AppendTo appends the elements to dst, in order, and returns the
// extended slice.
func (b *Blocks[T]) AppendTo(dst []T) []T {
	if len(b.tail) == 0 {
		return append(dst, b.head...)
	}
	if cap(dst)-len(dst) < b.Len() {
		grown := make([]T, len(dst), len(dst)+b.Len())
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, b.head[b.off:]...)
	for _, blk := range b.tail {
		dst = append(dst, blk...)
	}
	return dst
}
