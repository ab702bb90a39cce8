// Package cache implements set-associative, write-back, write-allocate caches
// with true-LRU replacement and MESI line states. It models tags and states
// only (contents live elsewhere); the machine layer composes caches into
// hierarchies and drives the coherence protocol. A cache counts nothing: the
// machine layer counts each CPU's events in its perfctr.Counters, and the
// coherence directory, which has the global view, classifies misses.
package cache

import "fmt"

// State is a MESI coherence state.
type State uint8

// MESI states. The zero value is Invalid so fresh tag arrays are empty.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Dirty reports whether a line in this state must be written back on eviction.
func (s State) Dirty() bool { return s == Modified }

// Config describes one cache.
type Config struct {
	Name     string
	Size     int // total bytes; must be Assoc*LineSize*2^k
	LineSize int // bytes; power of two
	Assoc    int // ways
}

// Lines returns the number of lines in the cache.
func (c Config) Lines() int { return c.Size / c.LineSize }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

// Validate reports whether the geometry is coherent.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by assoc*line", c.Name, c.Size)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

type way struct {
	tag   uint64 // full line number (addr >> lineShift)
	state State
	used  uint64 // LRU timestamp
}

// Victim describes a line displaced from the cache.
type Victim struct {
	Line  uint64
	State State
}

// Cache is a single level of set-associative cache. Not safe for concurrent
// use; the simulation kernel serializes all access.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	ways      []way // sets*assoc, set-major
	assoc     int
	tick      uint64
}

// New builds a cache; it panics on invalid geometry (configs are code, not
// user input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ls := uint(0)
	for 1<<ls < cfg.LineSize {
		ls++
	}
	return &Cache{
		cfg:       cfg,
		lineShift: ls,
		setMask:   uint64(cfg.Sets() - 1),
		ways:      make([]way, cfg.Sets()*cfg.Assoc),
		assoc:     cfg.Assoc,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineOf maps a byte address to this cache's line number.
func (c *Cache) LineOf(addr uint64) uint64 { return addr >> c.lineShift }

func (c *Cache) set(line uint64) []way {
	s := line & c.setMask
	return c.ways[s*uint64(c.assoc) : (s+1)*uint64(c.assoc)]
}

// Lookup records an access to line. On a hit it refreshes LRU and returns the
// current state with hit=true. On a miss it returns (Invalid, false) and the
// caller is expected to fetch the line and call Insert.
func (c *Cache) Lookup(line uint64, write bool) (State, bool) {
	set := c.set(line)
	for i := range set {
		// Tag first: distinct valid lines never share a tag, and a stale tag
		// on an Invalid way is rejected by the state check, so most ways fail
		// after a single compare.
		if set[i].tag == line && set[i].state != Invalid {
			c.tick++
			set[i].used = c.tick
			return set[i].state, true
		}
	}
	return Invalid, false
}

// Insert places line with the given state, evicting the LRU way if the set is
// full. It returns the victim (State==Invalid when no valid line was
// displaced).
func (c *Cache) Insert(line uint64, st State) Victim {
	set := c.set(line)
	victim := 0
	for i := range set {
		if set[i].state == Invalid {
			victim = i
			goto place
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
place:
	v := Victim{Line: set[victim].tag, State: set[victim].state}
	c.tick++
	set[victim] = way{tag: line, state: st, used: c.tick}
	return v
}

// find returns line's resident way, or nil when the line is absent. It is
// the one tag match behind every state change except Lookup and Insert.
func (c *Cache) find(line uint64) *way {
	set := c.set(line)
	for i := range set {
		if set[i].tag == line && set[i].state != Invalid {
			return &set[i]
		}
	}
	return nil
}

// SetState changes the state of a resident line; it panics if absent, which
// would indicate a protocol bug.
func (c *Cache) SetState(line uint64, st State) {
	w := c.find(line)
	if w == nil {
		panic(fmt.Sprintf("cache %s: SetState(%#x) on absent line", c.cfg.Name, line))
	}
	w.state = st
}

// MarkModified sets a resident line to Modified without LRU effects and
// reports whether the line was present. It is the fused form of the
// StateOf-then-SetState idiom on the write path (one set scan, not two).
func (c *Cache) MarkModified(line uint64) bool {
	w := c.find(line)
	if w == nil {
		return false
	}
	w.state = Modified
	return true
}

// StateOf returns the state of line without LRU effects (Invalid if absent).
func (c *Cache) StateOf(line uint64) State {
	if w := c.find(line); w != nil {
		return w.state
	}
	return Invalid
}

// Invalidate removes line (coherence action) and returns its prior state
// (Invalid if absent). The named result keeps it within the inlining budget:
// back-invalidation calls it once per L1 sub-block of every outer victim.
func (c *Cache) Invalidate(line uint64) (st State) {
	if w := c.find(line); w != nil {
		st, w.state = w.state, Invalid
	}
	return st
}

// Downgrade moves line from M/E to S (remote read intervention) and returns
// its prior state (Invalid if absent).
func (c *Cache) Downgrade(line uint64) State {
	w := c.find(line)
	if w == nil {
		return Invalid
	}
	st := w.state
	if st == Modified || st == Exclusive {
		w.state = Shared
	}
	return st
}

// FlushFraction invalidates roughly frac of the valid lines (deterministically,
// by walking ways with a stride) to model the cache pollution caused by a
// context switch running kernel/scheduler code. Victims (with their states,
// so the caller can write back dirty ones and fix the directory) are returned.
func (c *Cache) FlushFraction(frac float64) []Victim {
	if frac <= 0 {
		return nil
	}
	stride := int(1 / frac)
	if stride < 1 {
		stride = 1
	}
	var victims []Victim
	for i := 0; i < len(c.ways); i += stride {
		w := &c.ways[i]
		if w.state != Invalid {
			victims = append(victims, Victim{Line: w.tag, State: w.state})
			w.state = Invalid
		}
	}
	return victims
}

// ValidLines returns the number of resident lines (test/inspection helper).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].state != Invalid {
			n++
		}
	}
	return n
}
