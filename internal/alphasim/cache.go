// Package alphasim is the trace-driven processor simulator of the
// laboratory: a model of a 2-issue in-order microprocessor in the style of
// the DEC Alpha 21064, matching the machine of Table 3 in the paper —
// 8 KB direct-mapped first-level instruction and data caches, a unified
// direct-mapped 512 KB second-level cache, 8 KB pages, an 8-entry
// instruction TLB and a 32-entry data TLB, a 256-entry 1-bit branch history
// table, a 12-entry return stack and a 32-entry branch target cache.
//
// The simulator consumes the native-instruction stream produced by
// internal/atom and accounts every unfilled issue slot to one of the
// paper's stall causes (Figure 3).  It also provides a parametric
// instruction-cache sweep used to regenerate Figure 4.  The sweep gets
// every geometry from one pass: it drops fetches from the line just
// fetched, which hit everywhere, keeps one LRU stack per distinct set
// count, and counts each access at the stack depth where its line was
// found, so an A-way cache misses on the accesses found at depth A or
// deeper (stack-distance simulation, Mattson et al. 1970).
//
// The pipeline skips every cache and TLB lookup whose answer it already
// knows.  It remembers the L1I line and iTLB page of the last fetch and
// the L1D line and dTLB page of the last data access, and a fetch or data
// access that repeats one is a hit without a lookup.  This is exact: each
// of the four structures sees only its own stream, so a repeat would hit
// the entry that structure touched last, and true LRU would leave that
// entry most recently used, every age in the same order, and every later
// victim the same.  L2 is looked up only on an L1 miss, and a skipped
// lookup is a hit, so L2 and the miss notifications are unchanged too.
package alphasim

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name     string
	Size     int // bytes
	LineSize int // bytes
	Assoc    int // ways; 1 = direct-mapped
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	s := c.Size / (c.LineSize * c.Assoc)
	if s < 1 {
		s = 1
	}
	return s
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg       CacheConfig
	lineShift uint
	setMask   uint32
	assoc     int
	tags      []uint32 // sets*assoc; tag 0 means empty (tag stored +1)
	age       []uint64
	clock     uint64

	// Accesses and Misses count lookups.  Inside a Pipeline that excludes
	// repeats of the last line, which the pipeline knows hit; its Stats
	// count every access.
	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache from its geometry.  LineSize and the set count
// must be powers of two.
func NewCache(cfg CacheConfig) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:   cfg,
		assoc: cfg.Assoc,
		tags:  make([]uint32, sets*cfg.Assoc),
		age:   make([]uint64, sets*cfg.Assoc),
	}
	for c.lineShift = 0; 1<<c.lineShift < cfg.LineSize; c.lineShift++ {
	}
	c.setMask = uint32(sets - 1)
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks addr up, fills on miss, and reports whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	c.clock++
	line := addr >> c.lineShift
	set := int(line&c.setMask) * c.assoc
	tag := line + 1 // +1 so that 0 means "empty"
	var victim, oldest = set, c.age[set]
	for w := 0; w < c.assoc; w++ {
		i := set + w
		if c.tags[i] == tag {
			c.age[i] = c.clock
			return true
		}
		if c.age[i] < oldest {
			oldest = c.age[i]
			victim = i
		}
	}
	c.Misses++
	c.tags[victim] = tag
	c.age[victim] = c.clock
	return false
}

// MissRate returns misses per access (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.age[i] = 0
	}
	c.clock = 0
	c.Accesses = 0
	c.Misses = 0
}

// TLB is a fully associative translation buffer with LRU replacement.
type TLB struct {
	pageShift uint
	pages     []uint32
	age       []uint64
	clock     uint64

	// Accesses and Misses count lookups, as Cache's do: inside a Pipeline,
	// repeats of the last page are not looked up.
	Accesses uint64
	Misses   uint64
}

// NewTLB builds a TLB with the given number of entries and page size.
func NewTLB(entries int, pageSize uint32) *TLB {
	t := &TLB{
		pages: make([]uint32, entries),
		age:   make([]uint64, entries),
	}
	for t.pageShift = 0; 1<<t.pageShift < pageSize; t.pageShift++ {
	}
	return t
}

// Access translates addr, fills on miss, and reports whether it hit.
func (t *TLB) Access(addr uint32) bool {
	t.Accesses++
	t.clock++
	page := (addr >> t.pageShift) + 1
	victim, oldest := 0, t.age[0]
	for i := range t.pages {
		if t.pages[i] == page {
			t.age[i] = t.clock
			return true
		}
		if t.age[i] < oldest {
			oldest = t.age[i]
			victim = i
		}
	}
	t.Misses++
	t.pages[victim] = page
	t.age[victim] = t.clock
	return false
}

// MissRate returns misses per access (0 when idle).
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
