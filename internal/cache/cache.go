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

// A way holds one resident line: its number and MESI state packed into one
// key, line<<2 | state, so that the hit test is a single compare, and the
// tick of its last use. An Invalid way is all zero, so an empty way is always
// the least recently used one of its set.
type way struct {
	key  uint64
	used uint64
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

// Probe looks line up and returns its state and a way. On a hit it refreshes
// LRU and returns the line's way. On a miss it returns Invalid and the way a
// fill would take now: the first Invalid way of the set, or else the least
// recently used one. The way stays good for Fill or SetAt until the set next
// changes.
func (c *Cache) Probe(line uint64) (State, int) {
	// A resident line's key lies in [line<<2|1, line<<2|3], so key-lo < 3
	// is the whole hit test, and key-lo+1 is the line's state.
	lo := line<<2 | 1
	base := int(line&c.setMask) * c.assoc
	set := c.ways[base : base+c.assoc]
	victim, oldest := 0, ^uint64(0)
	for i := range set {
		w := &set[i]
		if d := w.key - lo; d < 3 {
			c.tick++
			w.used = c.tick
			return State(d + 1), base + i
		}
		if w.used < oldest {
			victim, oldest = i, w.used
		}
	}
	return Invalid, base + victim
}

// Fill installs line with state st (not Invalid) in way, which a Probe that
// missed on line returned, and returns the line it displaced (State ==
// Invalid when the way was empty).
func (c *Cache) Fill(way int, line uint64, st State) Victim {
	w := &c.ways[way]
	v := Victim{Line: w.key >> 2, State: State(w.key & 3)}
	c.tick++
	w.key, w.used = line<<2|uint64(st), c.tick
	return v
}

// SetAt changes the state of the line in way, which a Probe that hit
// returned, to st (not Invalid), without LRU effects. It panics on an empty
// way, which would indicate a protocol bug.
func (c *Cache) SetAt(way int, st State) {
	w := &c.ways[way]
	if w.key&3 == 0 {
		panic(fmt.Sprintf("cache %s: SetAt(%d) on an empty way", c.cfg.Name, way))
	}
	w.key = w.key&^3 | uint64(st)
}

// Insert places line, which must be absent, with state st in the way Probe
// names and returns the victim (State==Invalid when no valid line was
// displaced).
func (c *Cache) Insert(line uint64, st State) Victim {
	_, w := c.Probe(line)
	return c.Fill(w, line, st)
}

// find returns the index of line's resident way, or -1 when the line is
// absent. It is the one tag match behind every change that takes a line
// rather than a way.
func (c *Cache) find(line uint64) int {
	lo := line<<2 | 1
	base := int(line&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.ways[i].key-lo < 3 {
			return i
		}
	}
	return -1
}

// MarkModified sets a resident line to Modified without LRU effects and
// returns its prior state (Invalid if absent, which changes nothing).
func (c *Cache) MarkModified(line uint64) (st State) {
	if i := c.find(line); i >= 0 {
		st = State(c.ways[i].key & 3)
		c.ways[i].key |= uint64(Modified)
	}
	return st
}

// StateOf returns the state of line without LRU effects (Invalid if absent).
func (c *Cache) StateOf(line uint64) State {
	if i := c.find(line); i >= 0 {
		return State(c.ways[i].key & 3)
	}
	return Invalid
}

// Invalidate removes line (coherence action) and returns its prior state
// (Invalid if absent). Back-invalidation calls it once per L1 sub-block of
// every outer victim.
func (c *Cache) Invalidate(line uint64) (st State) {
	if i := c.find(line); i >= 0 {
		st = State(c.ways[i].key & 3)
		c.ways[i] = way{}
	}
	return st
}

// Downgrade moves line from M/E to S (remote read intervention) and returns
// its prior state (Invalid if absent).
func (c *Cache) Downgrade(line uint64) (st State) {
	if i := c.find(line); i >= 0 {
		w := &c.ways[i]
		st = State(w.key & 3)
		if st == Modified || st == Exclusive {
			w.key = w.key&^3 | uint64(Shared)
		}
	}
	return st
}

// FlushFraction invalidates roughly frac of the valid lines (deterministically,
// by walking ways with a stride) to model the cache pollution caused by a
// context switch running kernel/scheduler code. Victims (with their states,
// so the caller can write back dirty ones and fix the directory) are returned.
// It picks ways by physical index, so which lines it hits depends on the way
// each fill chose: way placement is part of the model's output.
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
		if k := c.ways[i].key; k&3 != 0 {
			victims = append(victims, Victim{Line: k >> 2, State: State(k & 3)})
			c.ways[i] = way{}
		}
	}
	return victims
}

// ValidLines returns the number of resident lines (test/inspection helper).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.ways {
		if c.ways[i].key&3 != 0 {
			n++
		}
	}
	return n
}
