// Package hash provides the hash functions used by the join algorithms.
//
// The paper (Sec. 5.1) uses MurmurHash 2.0, following Blanas et al.
// (SIGMOD 2011), because it has a good collision rate and low computational
// overhead. Radix-bit extraction for the partitioned hash join also lives
// here so every component agrees on how keys map to partitions.
package hash

// Murmur2Seed is the default seed for Murmur2, matching the constant
// commonly used in the reference implementation.
const Murmur2Seed uint32 = 0x9747b28c

// Murmur2 computes MurmurHash 2.0 of a 32-bit key with the given seed.
//
// This is the 4-byte specialization of Austin Appleby's MurmurHash2: the
// join only ever hashes one 32-bit key at a time, so the generic
// byte-slice loop collapses to a single mix round plus the finalizer.
func Murmur2(key uint32, seed uint32) uint32 {
	const m = 0x5bd1e995
	const r = 24

	h := seed ^ 4 // length is always 4 bytes

	k := key
	k *= m
	k ^= k >> r
	k *= m

	h *= m
	h ^= k

	// Finalization mix.
	h ^= h >> 13
	h *= m
	h ^= h >> 15
	return h
}

// RadixPass extracts the partition number for one radix-partitioning pass.
// bits is the number of radix bits consumed by this pass and shift is the
// number of low-order bits consumed by earlier passes. Partitioning is done
// on the hash of the key (not the raw key) so that skewed key spaces still
// spread across partitions, mirroring the paper's "integer hash values".
func RadixPass(key uint32, shift, bits uint) int {
	h := Murmur2(key, Murmur2Seed)
	return int((h >> shift) & ((1 << bits) - 1))
}

// InstrPerHash is the profiled instruction count of one Murmur2 evaluation
// in the compiled OpenCL kernel the device model mimics: the multiplies,
// xors and shifts of the 4-byte path above plus the address arithmetic,
// bounds handling and modulo folding around it. The constant feeds the
// device timing model and the cost model's C_i estimation (Eq. 3).
const InstrPerHash = 40
