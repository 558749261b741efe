package core

import (
	"fmt"
	"slices"
	"testing"

	"apujoin/internal/hash"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// TestPartitionPhaseMovesOnlyKeys looks inside a PHJ run after its partition
// phase: each partitioned side is one key column — no RID column, no
// partition index — grouped by partition as its offsets say, and the run
// holds nothing for it but those two columns beside its carved scratch.
// It covers a one-pass and a two-pass plan, a pool and BasicUnit's single
// stream, and the hash shift an external join's sub-joins run under. A
// pass's chunk arena is the pass's own and holds no words; the radix tests
// check that.
func TestPartitionPhaseMovesOnlyKeys(t *testing.T) {
	const n = 1 << 14
	r := rel.Gen{N: n, Seed: 81}.Build()
	s := rel.Gen{N: n, Seed: 82}.Probe(r, 0.8)
	pool := sched.NewPool(2)
	defer pool.Close()
	for _, target := range []int64{0, 64} { // the default plan's one pass; two
		for _, scheme := range []Scheme{PL, BasicUnit} {
			for _, shift := range []uint{0, 7} {
				opt := Options{Algo: PHJ, Scheme: scheme, RadixTargetBytes: target}
				opt.SetDefaults()
				opt.hashShift = shift
				rn := newRunner(r, s, opt)
				defer rn.release()
				plan := rn.geo.plan
				name := fmt.Sprintf("%s %v shift=%d", plan, scheme, shift)
				exec := &sched.Exec{CPU: rn.cpu, GPU: rn.gpu, Env: rn.env.envFor, Pool: pool}
				passes := make([]choice, plan.Passes())
				if scheme != BasicUnit {
					for i := range passes {
						passes[i].ratios = sched.Uniform(0.5, passSteps)
					}
				}
				var res Result
				for _, build := range []bool{true, false} {
					if err := rn.partitionSide(&res, exec, passes, build); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				for _, side := range []struct {
					in, out rel.Relation
					offs    []int32
				}{{r, rn.r, rn.offsetsR}, {s, rn.s, rn.offsetsS}} {
					if len(side.out.Keys) != n {
						t.Fatalf("%s: a partitioned side holds %d keys, want %d", name, len(side.out.Keys), n)
					}
					for part := 0; part+1 < len(side.offs); part++ {
						for _, k := range side.out.Keys[side.offs[part]:side.offs[part+1]] {
							if hash.RadixPass(uint32(k), shift, plan.TotalBits()) != part {
								t.Fatalf("%s: key %d sits in partition %d", name, k, part)
							}
						}
					}
					got, want := slices.Clone(side.out.Keys), slices.Clone(side.in.Keys)
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: the partitioned keys are not the input's", name)
					}
				}
				if rn.nheld != 3 || &rn.held[1][0] != &rn.r.Keys[0] || &rn.held[2][0] != &rn.s.Keys[0] {
					t.Fatalf("%s: the run holds %d slabs, want the scratch and the two key columns", name, rn.nheld)
				}
			}
		}
	}
}
