package sched

import "apujoin/internal/alloc"

// maxBuckets bounds a Scatter's fan-out, the widest radix pass's: a morsel
// keeps its histogram and its cursors on the stack.
const maxBuckets = 256

// Cols names the parallel int32 columns one Scatter.Move carries: up to
// three, the unused entries nil.
type Cols [3][]int32

// Scatter is the stable, morsel-parallel counting scatter every hash split
// of the tree goes through: every radix pass (Gather; the pooled n3 reads
// its cuts), the shard grid and spill splits, and the SHJ build's insert
// ownership. Tuple i belongs to bucket key[i]>>shift. Setup counts the
// tuples per morsel × bucket on the fixed MorselItems grid and turns the
// counts into output cursors with an exclusive prefix sum in bucket-major,
// morsel-minor order, so a bucket's slots are its morsels' runs in grid
// order: the output holds the buckets one after another, each in input
// order. Move then writes each tuple of a range straight to its final slot,
// every morsel into slots no other morsel writes. Like every decomposition
// in this package it is a pure function of the data: the pool only decides
// which goroutine counts or moves which morsel, and how a caller cuts [0,n)
// into Move calls changes nothing.
//
// The cursor grid is a recycler slab — never smaller than the recycler's
// smallest, so a small scatter allocates nothing — that Setup reuses when it
// is large enough (Setup writes every cursor before reading it); Release
// hands it back. The zero value is ready to use.
type Scatter struct {
	key     []int32
	shift   uint
	buckets int
	// grid[mi*buckets+b] is the output slot of morsel mi's first tuple of
	// bucket b; a last row past the final morsel holds every bucket's end.
	// Move never writes it, so a range that starts inside a morsel resumes
	// from it plus a count of the morsel's tuples before the cut.
	grid []int32

	// The Move running: its range and columns. count and move are Setup's
	// and Move's pool pieces, bound to the scatter at self once, so a
	// scatter that serves many calls hands the pool no new closure; a
	// copied scatter binds its own.
	lo, hi      int
	dst, src    Cols
	count, move func(i int)
	self        *Scatter
}

// bind binds count and move to x, unless they are bound to it already.
func (x *Scatter) bind() {
	if x.self != x {
		x.self, x.count, x.move = x, x.countMorsel, x.moveAt
	}
}

// Setup lays out the scatter of len(key) tuples into at most 256 buckets (it
// panics on more), tuple i to bucket key[i]>>shift, which must be below
// buckets, with shift below 32. It replaces whatever the scatter held before; key
// must stay unchanged while the scatter is in use.
func (x *Scatter) Setup(p *Pool, key []int32, shift uint, buckets int) {
	if buckets > maxBuckets {
		panic("sched: a scatter over more than 256 buckets")
	}
	n := len(key)
	m := (n + MorselItems - 1) / MorselItems
	if cap(x.grid) < (m+1)*buckets {
		alloc.PutWords(x.grid)
		x.grid = alloc.GetWords(max((m+1)*buckets, alloc.MinSlabWords))
	}
	grid := x.grid[:(m+1)*buckets]
	x.key, x.shift, x.buckets, x.grid = key, shift, buckets, grid

	x.bind()
	p.ForEach(m, x.count)
	clear(grid[m*buckets:])
	var pos int32
	for b := 0; b < buckets; b++ {
		for at := b; at < len(grid); at += buckets {
			c := grid[at]
			grid[at] = pos
			pos += c
		}
	}
}

// countMorsel counts morsel mi's tuples per bucket into its grid row.
func (x *Scatter) countMorsel(mi int) {
	var h [maxBuckets]int32
	for _, k := range x.key[mi*MorselItems : min(len(x.key), (mi+1)*MorselItems)] {
		h[uint8(k>>x.shift)]++
	}
	copy(x.grid[mi*x.buckets:(mi+1)*x.buckets], h[:])
}

// Release hands the cursor grid to the recycler, leaving a scatter that
// holds nothing but its bound pieces.
func (x *Scatter) Release() {
	alloc.PutWords(x.grid)
	*x = Scatter{count: x.count, move: x.move, self: x.self}
}

// Cut fills at[b], for every bucket b, with the output slot of bucket b's
// first tuple at input index i or later — the slot after its last one when
// there is none — so bucket b's tuples among the input range [lo,hi) sit in
// the slots [Cut(lo)[b], Cut(hi)[b]). It takes 0 ≤ i ≤ len(key): the grid's
// row for i's morsel plus a count of the morsel's tuples before i.
func (x *Scatter) Cut(i int, at []int32) {
	mi := i / MorselItems
	copy(at, x.grid[mi*x.buckets:(mi+1)*x.buckets])
	for _, k := range x.key[mi*MorselItems : i] {
		at[uint8(k>>x.shift)]++
	}
}

// Move writes the tuples [lo,hi) to their slots on the pool: src[c][i] goes
// to dst[c][slot of i] for every column given, and each dst column must hold
// len(key) slots. Every morsel the range overlaps moves its part from its
// own cursors, so a morsel that a range boundary cuts is finished by the
// Move over the next range; disjoint ranges may be moved in any order, one
// Move at a time.
func (x *Scatter) Move(p *Pool, lo, hi int, dst, src Cols) {
	if lo >= hi {
		return
	}
	first, last := lo/MorselItems, (hi-1)/MorselItems
	x.lo, x.hi, x.dst, x.src = lo, hi, dst, src
	x.bind()
	p.ForEach(last-first+1, x.move)
	x.dst, x.src = Cols{}, Cols{}
}

// moveAt moves the k-th morsel the running Move's range overlaps.
func (x *Scatter) moveAt(k int) {
	mi := x.lo/MorselItems + k
	x.moveMorsel(max(x.lo, mi*MorselItems), min(x.hi, (mi+1)*MorselItems), x.dst, x.src)
}

// moveMorsel moves the tuples [lo,hi) of one morsel, two columns per pass
// over the keys.
func (x *Scatter) moveMorsel(lo, hi int, dst, src Cols) {
	var start [maxBuckets]int32
	x.Cut(lo, start[:])
	key := x.key[lo:hi]
	for c := 0; c < len(src) && src[c] != nil; c += 2 {
		at := start
		if c+1 < len(src) && src[c+1] != nil {
			move2(key, x.shift, &at, dst[c], dst[c+1], src[c][lo:hi], src[c+1][lo:hi])
		} else {
			move1(key, x.shift, &at, dst[c], src[c][lo:hi])
		}
	}
}

// move1 writes s[i] to d at its bucket's cursor and advances the cursor.
// The loops stand alone so the compiler keeps them in registers; a shift
// is below 32, which masking tells it.
func move1(key []int32, shift uint, at *[maxBuckets]int32, d, s []int32) {
	s = s[:len(key)]
	shift &= 31
	for i, k := range key {
		b := uint8(k >> shift)
		d[at[b]] = s[i]
		at[b]++
	}
}

// move2 is move1 over two columns at once.
func move2(key []int32, shift uint, at *[maxBuckets]int32, d0, d1, s0, s1 []int32) {
	s0, s1 = s0[:len(key)], s1[:len(key)]
	shift &= 31
	for i, k := range key {
		b := uint8(k >> shift)
		slot := at[b]
		d0[slot], d1[slot] = s0[i], s1[i]
		at[b] = slot + 1
	}
}
