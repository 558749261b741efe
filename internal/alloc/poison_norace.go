//go:build !race

package alloc

// PoisonOnPut reports whether PutWords overwrites a slab with PoisonWord
// before pooling it: only race builds pay for that.
const PoisonOnPut = false
