package htab

import "apujoin/internal/alloc"

// New returns an empty flat table on the heap (Init), for the tests.
func New(nBuckets, n int, arena *alloc.Arena) *Table {
	t := new(Table)
	t.Init(nBuckets, n, 0, arena)
	return t
}

// NewSeg returns an empty segmented table on the heap (InitSeg), for the
// tests.
func NewSeg(parts, bucketsPerPart, n int, hashShift, radixBits uint, arena *alloc.Arena) *Table {
	t := new(Table)
	t.InitSeg(parts, bucketsPerPart, n, hashShift, radixBits, arena)
	return t
}
