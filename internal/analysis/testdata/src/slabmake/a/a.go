// Fixture for the slabmake analyzer, loaded at a join-executing path:
// input-sized []int32 arrays are flagged, constant-sized ones and other
// element types are not.
package core

type column []int32

func perRun(n int) ([]int32, []int32) {
	a := make([]int32, n)      // want `make\(\[\]int32, …\) sized by the input`
	b := make([]int32, 0, 2*n) // want `make\(\[\]int32, …\) sized by the input`
	return a, b
}

func named(n int) column {
	return make(column, n+1) // want `make\(\[\]int32, …\) sized by the input`
}

func twoOnOneLine(n int) ([]int32, []int32) {
	return make([]int32, n), make([]int32, n) // want `sized by the input` `sized by the input`
}

// Constant sizes are headers and histograms, not slabs.
const fanOut = 1 << 8

func header() []int32 {
	return make([]int32, 4*fanOut)
}

func small() []int32 {
	return make([]int32, 0, 64)
}

// Other element types and other builtins are none of this analyzer's
// business.
func others(n int) ([]int64, map[int32]int32, []int32) {
	var grown []int32
	grown = append(grown, int32(n))
	return make([]int64, n), make(map[int32]int32, n), grown
}

// A shadowed make is not the builtin.
func shadowed(n int) []int32 {
	make := func(_ []int32, n int) []int32 { return nil }
	return make(nil, n)
}

// An array that must stay on make says why.
func justified(parts int) []int32 {
	//apulint:ignore slabmake(fixture: one word per partition, returned to the caller)
	return make([]int32, parts+1)
}
