package core

import (
	"math/rand"
	"testing"
)

// refEqual, refDominates and refDiff are the per-element
// references the chunked kernels are fuzzed against.
func refEqual(d, o []SN) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

func refDominates(d, o []SN) bool {
	for i := range d {
		if d[i] < o[i] {
			return false
		}
	}
	return true
}

func refDiff(buf []DDVPair, cur, base []SN) []DDVPair {
	for i, v := range cur {
		if v != base[i] {
			buf = append(buf, DDVPair{Idx: int32(i), SN: v})
		}
	}
	return buf
}

// randomVectorPair builds two vectors that agree on most blocks (the
// protocol's steady state) with scattered raises, drops and ties.
func randomVectorPair(rng *rand.Rand, width int) (a, b DDV) {
	a, b = NewDDV(width), NewDDV(width)
	for i := 0; i < width; i++ {
		v := SN(rng.Intn(50))
		a[i], b[i] = v, v
	}
	for k := rng.Intn(width + 1); k > 0; k-- {
		i := rng.Intn(width)
		switch rng.Intn(3) {
		case 0:
			b[i] = a[i] + SN(rng.Intn(5)+1)
		case 1:
			if a[i] > 0 {
				b[i] = a[i] - SN(rng.Intn(int(a[i]))+1)
			}
		case 2:
			a[i] = SN(rng.Intn(50))
		}
	}
	return a, b
}

// kernelWidths spans sub-block, one-block, mid and wide vectors,
// including non-multiples of the block size.
var kernelWidths = []int{1, 7, 8, 9, 64, 100, 256, 1024}

func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range kernelWidths {
		for iter := 0; iter < 200; iter++ {
			a, b := randomVectorPair(rng, w)

			if got, want := equalSN(a, b), refEqual(a, b); got != want {
				t.Fatalf("width %d: equalSN = %v, ref %v (a=%v b=%v)", w, got, want, a, b)
			}
			if got, want := dominatesSN(a, b), refDominates(a, b); got != want {
				t.Fatalf("width %d: dominatesSN = %v, ref %v (a=%v b=%v)", w, got, want, a, b)
			}

			gotDiff := diffPairsKernel(nil, a, b)
			wantDiff := refDiff(nil, a, b)
			comparePairs(t, "diffPairs", w, gotDiff, wantDiff)
		}
	}
}

func comparePairs(t *testing.T, what string, w int, got, want []DDVPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("width %d: %s emitted %d pairs, ref %d (got=%v want=%v)", w, what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("width %d: %s pair %d = %+v, ref %+v", w, what, i, got[i], want[i])
		}
	}
}

// FuzzDDVKernels drives the compare and diff kernels against the
// per-element references with fully random vectors — no
// agree-on-most-blocks bias.
func FuzzDDVKernels(f *testing.F) {
	f.Add(uint64(1), 8)
	f.Add(uint64(2), 64)
	f.Add(uint64(3), 256)
	f.Add(uint64(4), 1024)
	f.Fuzz(func(t *testing.T, seed uint64, width int) {
		if width < 1 || width > 2048 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		a, b := NewDDV(width), NewDDV(width)
		for i := range a {
			a[i] = SN(rng.Intn(8))
			b[i] = SN(rng.Intn(8))
		}
		if got, want := equalSN(a, b), refEqual(a, b); got != want {
			t.Fatalf("equalSN = %v, ref %v", got, want)
		}
		if got, want := dominatesSN(a, b), refDominates(a, b); got != want {
			t.Fatalf("dominatesSN = %v, ref %v", got, want)
		}
		comparePairs(t, "diffPairs", width, diffPairsKernel(nil, a, b), refDiff(nil, a, b))
	})
}
