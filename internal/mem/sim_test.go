package mem

// Sim is a trace-driven set-associative LRU cache simulator, the reference
// TestSimAnalyticalModelAgreement holds the analytical CacheModel to: the
// simulated clock takes its L2 miss counts from CacheModel, and no kernel
// feeds Sim a trace.
//
// Sim is not safe for concurrent use.
type Sim struct {
	sets      int
	ways      int
	lineShift uint
	// tags[set*ways+way]; age for LRU.
	tags     []uint64
	valid    []bool
	age      []uint64
	tick     uint64
	accesses int64
	misses   int64
}

// NewSim returns a simulator with the given capacity, line size and
// associativity. Capacity must be a multiple of lineBytes×ways and the
// resulting set count must be a power of two.
func NewSim(capacityBytes, lineBytes int64, ways int) *Sim {
	if ways <= 0 {
		ways = 16
	}
	lines := capacityBytes / lineBytes
	sets := int(lines) / ways
	if sets <= 0 {
		sets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	var shift uint
	for (int64(1) << shift) < lineBytes {
		shift++
	}
	n := sets * ways
	return &Sim{
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		age:       make([]uint64, n),
	}
}

// NewL2Sim returns a simulator of the A8-3870K's shared 4 MB L2.
func NewL2Sim() *Sim { return NewSim(DefaultL2Bytes, DefaultLineBytes, 16) }

// Access simulates one access to byte address addr and reports whether it
// missed.
func (s *Sim) Access(addr uint64) bool {
	s.tick++
	s.accesses++
	line := addr >> s.lineShift
	set := int(line) & (s.sets - 1)
	base := set * s.ways

	// Hit?
	for w := 0; w < s.ways; w++ {
		i := base + w
		if s.valid[i] && s.tags[i] == line {
			s.age[i] = s.tick
			return false
		}
	}

	// Miss: fill LRU way.
	s.misses++
	victim := base
	for w := 1; w < s.ways; w++ {
		i := base + w
		if !s.valid[i] {
			victim = i
			break
		}
		if s.age[i] < s.age[victim] {
			victim = i
		}
	}
	s.tags[victim] = line
	s.valid[victim] = true
	s.age[victim] = s.tick
	return true
}

// Accesses returns the number of simulated accesses.
func (s *Sim) Accesses() int64 { return s.accesses }

// Misses returns the number of misses observed.
func (s *Sim) Misses() int64 { return s.misses }

// MissRatio returns misses/accesses, or 0 before any access.
func (s *Sim) MissRatio() float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.misses) / float64(s.accesses)
}

// Reset clears contents and counters.
func (s *Sim) Reset() {
	for i := range s.valid {
		s.valid[i] = false
		s.age[i] = 0
		s.tags[i] = 0
	}
	s.tick = 0
	s.accesses = 0
	s.misses = 0
}
