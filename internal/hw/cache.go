package hw

import (
	"fmt"
	"math/bits"
)

// Cache models a set-associative cache with true-LRU replacement. It tracks
// which line-aligned addresses are resident so the simulator can charge
// realistic hit/miss latencies and so cache side-channel experiments
// (prime+probe, E8) observe genuine eviction behaviour.
//
// A cache can exclude address ranges: accesses to excluded ranges bypass the
// cache entirely (never allocate, never hit). SANCTUARY uses this to keep
// enclave memory out of the shared L2 so that co-resident attackers cannot
// observe enclave-driven evictions.
type Cache struct {
	sets     int
	ways     int
	lineSize int
	// lineShift and setMask find a line's set: (line >> lineShift) & setMask.
	lineShift uint
	setMask   uint64
	// way holds every way of every set flat: set s is way[s*ways:(s+1)*ways].
	way      []cacheWay
	stamp    uint64
	excluded []addrRange

	hits   uint64
	misses uint64
}

// cacheWay is one way of a set: the line-aligned address it holds, its
// validity and its LRU stamp (higher = more recent).
type cacheWay struct {
	line  PhysAddr
	lru   uint64
	valid bool
}

type addrRange struct {
	base PhysAddr
	size uint64
}

func (r addrRange) contains(a PhysAddr) bool {
	return a >= r.base && uint64(a-r.base) < r.size
}

// NewCache constructs a cache with the given geometry. sets and lineSize
// must be powers of two and ways positive; it panics otherwise.
func NewCache(sets, ways, lineSize int) *Cache {
	if !isPow2(sets) || !isPow2(lineSize) || ways <= 0 {
		panic(fmt.Sprintf("hw: cache geometry %d sets × %d ways × %d B: sets and line size must be powers of two, ways positive", sets, ways, lineSize))
	}
	return &Cache{
		sets: sets, ways: ways, lineSize: lineSize,
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setMask:   uint64(sets - 1),
		way:       make([]cacheWay, sets*ways),
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Exclude registers [base, base+size) as uncacheable. Subsequent accesses to
// the range bypass the cache; lines already resident are evicted.
func (c *Cache) Exclude(base PhysAddr, size uint64) {
	r := addrRange{base: base, size: size}
	c.excluded = append(c.excluded, r)
	for i := range c.way {
		if c.way[i].valid && r.contains(c.way[i].line) {
			c.way[i].valid = false
		}
	}
}

// ClearExclusions removes all exclusion ranges (used between experiments).
func (c *Cache) ClearExclusions() { c.excluded = nil }

// RemoveExclusion drops the exclusion range previously registered with
// exactly (base, size); enclave teardown uses it to make the range cacheable
// again. It reports whether such a range was found.
func (c *Cache) RemoveExclusion(base PhysAddr, size uint64) bool {
	for i, r := range c.excluded {
		if r.base == base && r.size == size {
			c.excluded = append(c.excluded[:i], c.excluded[i+1:]...)
			return true
		}
	}
	return false
}

// Bypasses reports whether addr falls in an excluded range.
func (c *Cache) Bypasses(addr PhysAddr) bool {
	line := c.lineAddr(addr)
	for _, r := range c.excluded {
		if r.contains(line) {
			return true
		}
	}
	return false
}

// bypassRun reports whether line (line-aligned) is excluded and returns
// the first line boundary after it, capped at limit, at which that could
// change: the next line at which some excluded range starts or stops
// covering line addresses. Every line in [line, end) bypasses exactly when
// line does, so a walk decides exclusion once per run instead of per line.
func (c *Cache) bypassRun(line, limit PhysAddr) (bypass bool, end PhysAddr) {
	end = limit
	m := uint64(c.lineSize - 1)
	for _, r := range c.excluded {
		if r.contains(line) {
			bypass = true
		}
		// r covers exactly the lines from base to base+size, each rounded
		// up to a line. A bound above the last line rounds to 0, past
		// which no line lies, and is ignored.
		for _, b := range [2]uint64{uint64(r.base), uint64(r.base) + r.size} {
			if b = (b + m) &^ m; b > uint64(line) && b < uint64(end) {
				end = PhysAddr(b)
			}
		}
	}
	return bypass, end
}

func (c *Cache) lineAddr(addr PhysAddr) PhysAddr {
	return addr &^ PhysAddr(c.lineSize-1)
}

func (c *Cache) setIndex(line PhysAddr) int {
	return int(uint64(line) >> c.lineShift & c.setMask)
}

// set returns the ways of the set line maps to.
func (c *Cache) set(line PhysAddr) []cacheWay {
	i := c.setIndex(line) * c.ways
	return c.way[i : i+c.ways : i+c.ways]
}

// Access simulates a load/store of the line containing addr. It returns
// whether the line hit and, if the fill evicted a valid victim, the victim's
// line address. Excluded addresses always miss and never allocate.
func (c *Cache) Access(addr PhysAddr) (hit bool, evicted PhysAddr, hadVictim bool) {
	if c.Bypasses(addr) {
		c.misses++
		return false, 0, false
	}
	return c.fill(c.lineAddr(addr))
}

// lookup is Access for a walk that has already decided whether line
// (line-aligned) bypasses; it reports only whether the line hit.
func (c *Cache) lookup(line PhysAddr, bypass bool) bool {
	if bypass {
		c.misses++
		return false
	}
	hit, _, _ := c.fill(line)
	return hit
}

// fill is Access for a cacheable line-aligned address.
func (c *Cache) fill(line PhysAddr) (hit bool, evicted PhysAddr, hadVictim bool) {
	set := c.set(line)
	c.stamp++
	for w := range set {
		if set[w].valid && set[w].line == line {
			set[w].lru = c.stamp
			c.hits++
			return true, 0, false
		}
	}
	c.misses++
	// Fill: prefer an invalid way, otherwise evict the LRU way.
	victim := -1
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < len(set); w++ {
			if set[w].lru < set[victim].lru {
				victim = w
			}
		}
		evicted, hadVictim = set[victim].line, true
	}
	set[victim] = cacheWay{line: line, lru: c.stamp, valid: true}
	return false, evicted, hadVictim
}

// Probe reports whether the line containing addr is resident without
// updating LRU state or statistics. Prime+probe attackers cannot do this on
// real hardware (they must time accesses); tests use it as ground truth.
func (c *Cache) Probe(addr PhysAddr) bool {
	if c.Bypasses(addr) {
		return false
	}
	line := c.lineAddr(addr)
	for _, w := range c.set(line) {
		if w.valid && w.line == line {
			return true
		}
	}
	return false
}

// Flush invalidates every line.
func (c *Cache) Flush() {
	for i := range c.way {
		c.way[i].valid = false
	}
}

// SetOf returns the set index addr maps to; side-channel experiments use it
// to build eviction sets.
func (c *Cache) SetOf(addr PhysAddr) int {
	return c.setIndex(c.lineAddr(addr))
}
