//go:build race

package alloc

// PoisonOnPut reports whether PutWords overwrites a slab with PoisonWord
// before pooling it. Race builds do, so that every suite run under the race
// detector — invariance, shard, cluster, pipeline, the fuzz seed corpus —
// exercises the "contents are arbitrary" contract on memory that is
// certainly dirty.
const PoisonOnPut = true
