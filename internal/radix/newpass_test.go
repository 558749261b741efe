package radix

import (
	"apujoin/internal/alloc"
	"apujoin/internal/rel"
)

// NewPass returns a new pass over in (Pass.Init), for the tests that hold
// one pass each.
func NewPass(in rel.Relation, cfg alloc.Config, shift, bits uint) *Pass {
	p := new(Pass)
	p.Init(in, cfg, shift, bits)
	return p
}
