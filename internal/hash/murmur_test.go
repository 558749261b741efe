package hash

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

// Murmur2Bytes computes MurmurHash 2.0 over an arbitrary byte slice: the
// generic algorithm, the reference the 4-byte specialization is checked
// against.
func Murmur2Bytes(data []byte, seed uint32) uint32 {
	const m = 0x5bd1e995
	const r = 24

	h := seed ^ uint32(len(data))

	for len(data) >= 4 {
		k := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
		k *= m
		k ^= k >> r
		k *= m

		h *= m
		h ^= k
		data = data[4:]
	}

	switch len(data) {
	case 3:
		h ^= uint32(data[2]) << 16
		fallthrough
	case 2:
		h ^= uint32(data[1]) << 8
		fallthrough
	case 1:
		h ^= uint32(data[0])
		h *= m
	}

	h ^= h >> 13
	h *= m
	h ^= h >> 15
	return h
}

func TestMurmur2MatchesByteVersion(t *testing.T) {
	// The 4-byte specialization must agree with the generic byte-slice
	// implementation for every 32-bit key.
	f := func(key, seed uint32) bool {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], key)
		return Murmur2(key, seed) == Murmur2Bytes(buf[:], seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestMurmur2Deterministic(t *testing.T) {
	if Murmur2(12345, Murmur2Seed) != Murmur2(12345, Murmur2Seed) {
		t.Fatal("murmur2 not deterministic")
	}
}

func TestMurmur2SeedSensitivity(t *testing.T) {
	if Murmur2(1, 1) == Murmur2(1, 2) {
		t.Fatal("different seeds produced identical hashes (suspicious)")
	}
}

func TestMurmur2Bytes(t *testing.T) {
	// Non-multiple-of-4 tails exercise the switch fallthroughs.
	cases := [][]byte{{}, {1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5}, []byte("hello, world")}
	seen := map[uint32]bool{}
	for _, c := range cases {
		h := Murmur2Bytes(c, Murmur2Seed)
		if seen[h] {
			t.Fatalf("collision between trivial inputs at %v", c)
		}
		seen[h] = true
	}
}

func TestBucketDistribution(t *testing.T) {
	// Sequential keys must spread roughly uniformly across the buckets a
	// hash table masks the low bits into.
	const n = 1 << 16
	const buckets = 256
	counts := make([]int, buckets)
	for k := uint32(0); k < n; k++ {
		counts[Murmur2(k, Murmur2Seed)&(buckets-1)]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bucket %d count %d far from expected %d", b, c, want)
		}
	}
}

func TestRadixPassPartitionsAreHashPrefixConsistent(t *testing.T) {
	// A two-pass split (low bits then high bits) must agree with a single
	// pass over all bits.
	f := func(key uint32) bool {
		lo := RadixPass(key, 0, 4)
		hi := RadixPass(key, 4, 4)
		all := RadixPass(key, 0, 8)
		return all == lo|hi<<4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRadixPassRange(t *testing.T) {
	for _, bits := range []uint{1, 4, 8, 12} {
		for k := uint32(0); k < 1000; k++ {
			p := RadixPass(k, 0, bits)
			if p < 0 || p >= 1<<bits {
				t.Fatalf("bits=%d key=%d: partition %d out of range", bits, k, p)
			}
		}
	}
}

func BenchmarkMurmur2(b *testing.B) {
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += Murmur2(uint32(i), Murmur2Seed)
	}
	_ = sink
}
