package core

// This file holds the width-strided DDV kernels: the element-wise
// compare and diff loops of the protocol rewritten to stride over the
// vector in fixed-size blocks. Each block is viewed through an array
// pointer, which both eliminates bounds checks in the inner loop and
// lets a whole block be compared in one shot — the common case on wide
// federations is that almost every block is untouched, so compares and
// diffs become a sequence of 64-byte equality probes that skip straight
// past the unchanged regions, and the loops run at memory bandwidth
// rather than per-element branch cost. The kernels are exact drop-in
// replacements for the naive loops; kernel_test.go fuzzes them against
// the per-element references at widths 8/64/256/1024.

// ddvBlock is the kernel stride in SN entries (64 bytes, one cache
// line). Vectors shorter than a block fall through to the scalar tail.
const ddvBlock = 8

// equalSN reports element-wise equality of two equal-length vectors.
func equalSN(d, o []SN) bool {
	if len(d) != len(o) {
		return false
	}
	i := 0
	for ; i+ddvBlock <= len(d); i += ddvBlock {
		if *(*[ddvBlock]SN)(d[i:]) != *(*[ddvBlock]SN)(o[i:]) {
			return false
		}
	}
	for ; i < len(d); i++ {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// dominatesSN reports whether d[i] >= o[i] for every entry. Equal
// blocks dominate trivially and are skipped whole.
func dominatesSN(d, o []SN) bool {
	i := 0
	for ; i+ddvBlock <= len(d); i += ddvBlock {
		db := (*[ddvBlock]SN)(d[i:])
		ob := (*[ddvBlock]SN)(o[i:])
		if *db == *ob {
			continue
		}
		for j := 0; j < ddvBlock; j++ {
			if db[j] < ob[j] {
				return false
			}
		}
	}
	for ; i < len(d); i++ {
		if d[i] < o[i] {
			return false
		}
	}
	return true
}

// raisedPairs appends one pair per entry where cur exceeds base,
// skipping index skip (the examining node's own cluster); equal blocks
// raise nothing and are skipped whole. This is the dense exam scan of
// the CIC test.
func raisedPairs(buf []DDVPair, cur, base []SN, skip int32) []DDVPair {
	i := 0
	for ; i+ddvBlock <= len(cur); i += ddvBlock {
		cb := (*[ddvBlock]SN)(cur[i:])
		bb := (*[ddvBlock]SN)(base[i:])
		if *cb == *bb {
			continue
		}
		for j := 0; j < ddvBlock; j++ {
			if idx := int32(i + j); idx != skip && cb[j] > bb[j] {
				buf = append(buf, DDVPair{Idx: idx, SN: cb[j]})
			}
		}
	}
	for ; i < len(cur); i++ {
		if idx := int32(i); idx != skip && cur[i] > base[i] {
			buf = append(buf, DDVPair{Idx: idx, SN: cur[i]})
		}
	}
	return buf
}

// diffPairsKernel appends one pair per entry where cur differs from
// base; equal blocks contribute nothing and are skipped whole.
func diffPairsKernel(buf []DDVPair, cur, base []SN) []DDVPair {
	i := 0
	for ; i+ddvBlock <= len(cur); i += ddvBlock {
		cb := (*[ddvBlock]SN)(cur[i:])
		bb := (*[ddvBlock]SN)(base[i:])
		if *cb == *bb {
			continue
		}
		for j := 0; j < ddvBlock; j++ {
			if cb[j] != bb[j] {
				buf = append(buf, DDVPair{Idx: int32(i + j), SN: cb[j]})
			}
		}
	}
	for ; i < len(cur); i++ {
		if cur[i] != base[i] {
			buf = append(buf, DDVPair{Idx: int32(i), SN: cur[i]})
		}
	}
	return buf
}
