package plan

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"apujoin/internal/core"
)

var (
	// errAbandoned answers a chain's lookups once a lower chain of its
	// fan-out has failed: in the sequential order the fan-out stands for,
	// the chain never runs, so it must not touch the cache.
	errAbandoned = errors.New("plan: a lower chain of the fan-out failed")
	// errStale ends a chain whose hits taken before its turn are no longer
	// what its turn would serve; Turns.Run runs it again in turn.
	errStale = errors.New("plan: plan-cache hits taken before the chain's turn went stale")
)

// Turns lets n chains that plan on one planner run concurrently while
// every planner decision stays what running them one after another, in
// index order, makes it: the plan each lookup returns, whether it hit, and
// what the cache holds afterwards, LRU order and counters included. Chain
// i's turn comes once every lower chain has retired. Before it:
//
//   - a lookup whose fingerprint is resident proceeds at once on that
//     plan; the hit is recorded, not applied;
//   - a lookup that misses waits for the turn, applies the recorded hits,
//     and only then goes to the cache, so a plan two chains share is
//     always built from the lower chain's data, as in sequence.
//
// Applying recorded hits checks that each is still the resident entry. It
// fails only when a lower chain's insert evicted one (a cache without room
// for every plan the fan-out inserts); the chain then runs again in its
// turn, where every lookup goes straight to the cache. A chain that
// finishes before its turn waits for it, so Run returns the chain's final
// error. Once a chain fails, higher chains never touch the cache: in
// sequence they would not have run.
//
// Fan-outs nest: a chain plans on a Planner, and a fan-out inside chain i
// sequences its own chains within chain i's turn.
type Turns struct {
	parent *Planner
	run    func(i int, pl *Planner) error

	mu   sync.Mutex
	cond sync.Cond
	// turn is the lowest chain not yet retired; failed reports that a
	// retired chain failed.
	turn   int
	failed bool
	seats  []seat
}

// seat is one chain's place in a Turns: the planner it plans on and the
// hits it took before its turn.
type seat struct {
	t    *Turns
	i    int
	view Planner
	// inTurn: every lower chain has retired and the recorded hits are
	// applied, so lookups go straight to the parent. stale: applying them
	// failed, and this run of the chain is void.
	inTurn, stale bool
	hits          []hit
	buf           [4]hit
}

// hit is one lookup served from the cache before the chain's turn: the
// entry it found and the plan the entry held.
type hit struct {
	el *list.Element
	pl *core.Plan
}

// Turns returns the sequencer of an n-chain fan-out on p. run(i, pl) runs
// chain i planning on pl; it runs again in the chain's turn when hits it
// took before went stale, and must then replace everything the first run
// produced. On a nil planner the chains share nothing: Run(i) is run(i, nil).
func (p *Planner) Turns(n int, run func(i int, pl *Planner) error) *Turns {
	t := &Turns{parent: p, run: run}
	if p == nil {
		return t
	}
	t.cond.L = &t.mu
	t.seats = make([]seat, n)
	for i := range t.seats {
		s := &t.seats[i]
		s.t, s.i = t, i
		s.view = Planner{cache: p.cache, seat: s}
		s.hits = s.buf[:0]
	}
	return t
}

// Run runs chain i, waits for its turn, and retires it, running it again
// first if its early hits went stale. It returns the chain's final error.
func (t *Turns) Run(i int) error {
	if t.parent == nil {
		return t.run(i, nil)
	}
	s := &t.seats[i]
	err := t.run(i, &s.view)
	t.mu.Lock()
	if s.enter() == errStale {
		s.stale = false
		t.mu.Unlock()
		err = t.run(i, &s.view)
		t.mu.Lock()
	}
	t.turn = max(t.turn, i+1)
	t.failed = t.failed || err != nil
	t.cond.Broadcast()
	t.mu.Unlock()
	return err
}

// enter makes the turn the chain's own, under t.mu: it waits until every
// lower chain has retired and applies the hits recorded before.
func (s *seat) enter() error {
	t := s.t
	switch {
	case s.stale:
		return errStale
	case s.inTurn:
		return nil
	}
	for t.turn < s.i && !t.failed {
		t.cond.Wait()
	}
	if t.failed {
		return errAbandoned
	}
	s.inTurn = true
	if !t.parent.apply(s.hits) {
		s.stale = true
		return errStale
	}
	s.hits = s.buf[:0]
	return nil
}

// early reports, under t.mu, whether the chain's turn has not come yet.
func (s *seat) early() bool { return !s.inTurn && !s.stale && s.t.turn < s.i }

// lookup is Cache.GetOrBuild under the fan-out's rule.
func (s *seat) lookup(ctx context.Context, fp Fingerprint, build func() (*core.Plan, error)) (*core.Plan, bool, error) {
	t := s.t
	t.mu.Lock()
	if s.early() {
		if el, pl, ok := s.view.cache.peek(fp); ok {
			s.hits = append(s.hits, hit{el, pl})
			t.mu.Unlock()
			return pl, true, nil
		}
	}
	err := s.enter()
	t.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	return t.parent.lookup(ctx, fp, build)
}

// apply takes the hits a nested fan-out's chain recorded before its turn:
// this chain records them too until its own turn, and passes them on after.
func (s *seat) apply(hits []hit) bool {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.early() {
		s.hits = append(s.hits, hits...)
		return true
	}
	return s.enter() == nil && t.parent.apply(hits)
}

// lookup returns the plan for fp, building it on a miss: straight from the
// cache, or under the rule of the fan-out the planner is a chain of.
func (p *Planner) lookup(ctx context.Context, fp Fingerprint, build func() (*core.Plan, error)) (*core.Plan, bool, error) {
	if p.seat != nil {
		return p.seat.lookup(ctx, fp, build)
	}
	return p.cache.GetOrBuild(ctx, fp, build)
}

// apply applies hits a chain took before its turn, in order; false means
// they went stale.
func (p *Planner) apply(hits []hit) bool {
	if p.seat != nil {
		return p.seat.apply(hits)
	}
	return p.cache.apply(hits)
}
