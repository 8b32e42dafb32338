package hw

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the cache model before the flat way array, the shift-and-mask
// set index and the range-charged walk: per-set way slices, a set found by
// two divides, and the exclusion list consulted on every access. It is the
// oracle the differential tests hold Cache and SoC.chargeMemory to.
type refCache struct {
	sets, ways, lineSize int
	lines                [][]PhysAddr
	valid                [][]bool
	lru                  [][]uint64
	stamp                uint64
	excluded             []addrRange
	hits, misses         uint64
}

func newRefCache(sets, ways, lineSize int) *refCache {
	c := &refCache{sets: sets, ways: ways, lineSize: lineSize}
	c.lines = make([][]PhysAddr, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := 0; i < sets; i++ {
		c.lines[i] = make([]PhysAddr, ways)
		c.valid[i] = make([]bool, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c
}

func (c *refCache) Exclude(base PhysAddr, size uint64) {
	c.excluded = append(c.excluded, addrRange{base: base, size: size})
	r := addrRange{base: base, size: size}
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			if c.valid[s][w] && r.contains(c.lines[s][w]) {
				c.valid[s][w] = false
			}
		}
	}
}

func (c *refCache) RemoveExclusion(base PhysAddr, size uint64) bool {
	for i, r := range c.excluded {
		if r.base == base && r.size == size {
			c.excluded = append(c.excluded[:i], c.excluded[i+1:]...)
			return true
		}
	}
	return false
}

func (c *refCache) Bypasses(addr PhysAddr) bool {
	line := c.lineAddr(addr)
	for _, r := range c.excluded {
		if r.contains(line) {
			return true
		}
	}
	return false
}

func (c *refCache) lineAddr(addr PhysAddr) PhysAddr {
	return addr &^ PhysAddr(c.lineSize-1)
}

func (c *refCache) setIndex(line PhysAddr) int {
	return int(uint64(line) / uint64(c.lineSize) % uint64(c.sets))
}

func (c *refCache) Access(addr PhysAddr) (hit bool, evicted PhysAddr, hadVictim bool) {
	if c.Bypasses(addr) {
		c.misses++
		return false, 0, false
	}
	line := c.lineAddr(addr)
	set := c.setIndex(line)
	c.stamp++
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == line {
			c.lru[set][w] = c.stamp
			c.hits++
			return true, 0, false
		}
	}
	c.misses++
	victim := 0
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			victim = w
			goto fill
		}
	}
	for w := 1; w < c.ways; w++ {
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	if c.valid[set][victim] {
		evicted, hadVictim = c.lines[set][victim], true
	}
fill:
	c.lines[set][victim] = line
	c.valid[set][victim] = true
	c.lru[set][victim] = c.stamp
	return false, evicted, hadVictim
}

func (c *refCache) Probe(addr PhysAddr) bool {
	if c.Bypasses(addr) {
		return false
	}
	line := c.lineAddr(addr)
	set := c.setIndex(line)
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.lines[set][w] == line {
			return true
		}
	}
	return false
}

func (c *refCache) Flush() {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.ways; w++ {
			c.valid[s][w] = false
		}
	}
}

// refChargeMemory is the per-line walk chargeMemory replaced: one Access
// per line on L1, then on L2 for L1's misses, each line's latency charged
// on its own. It returns the cycles and every line the walk evicted.
func refChargeMemory(l1, l2 *refCache, addr PhysAddr, n int) (cycles uint64, evicted []PhysAddr) {
	line := PhysAddr(uint64(addr) &^ uint64(CacheLineSize-1))
	end := uint64(addr) + uint64(n)
	for uint64(line) < end {
		hit, ev, had := l1.Access(line)
		if had {
			evicted = append(evicted, ev)
		}
		if hit {
			cycles += L1HitCycles
		} else {
			hit, ev, had := l2.Access(line)
			if had {
				evicted = append(evicted, ev)
			}
			if hit {
				cycles += L2HitCycles
			} else {
				cycles += DRAMCycles
			}
		}
		line += PhysAddr(CacheLineSize)
	}
	return cycles, evicted
}

// sameCacheState fails unless c and ref hold the same lines in the same
// ways with the same LRU stamps and report the same statistics.
func sameCacheState(t *testing.T, name string, c *Cache, ref *refCache) {
	t.Helper()
	if h, m := c.Stats(); h != ref.hits || m != ref.misses {
		t.Fatalf("%s: stats %d/%d, per-line model %d/%d", name, h, m, ref.hits, ref.misses)
	}
	if c.stamp != ref.stamp {
		t.Fatalf("%s: LRU clock %d, per-line model %d", name, c.stamp, ref.stamp)
	}
	for s := 0; s < ref.sets; s++ {
		for w := 0; w < ref.ways; w++ {
			got := c.way[s*c.ways+w]
			if got.valid != ref.valid[s][w] || got.valid && (got.line != ref.lines[s][w] || got.lru != ref.lru[s][w]) {
				t.Fatalf("%s: set %d way %d = %+v, per-line model {line:%#x lru:%d valid:%v}",
					name, s, w, got, ref.lines[s][w], ref.lru[s][w], ref.valid[s][w])
			}
		}
	}
}

// randomRange draws a byte range over a footprint a few times the size of
// L2, so walks hit, miss and evict at both levels: mostly short and
// unaligned, sometimes a whole page or more.
func randomRange(r *rand.Rand) (PhysAddr, int) {
	addr := PhysAddr(r.Intn(4 << 20))
	switch r.Intn(4) {
	case 0:
		return addr, 1 + r.Intn(CacheLineSize)
	case 1:
		return addr, 1 + r.Intn(4<<10)
	case 2:
		return addr &^ (CacheLineSize - 1), CacheLineSize * (1 + r.Intn(256))
	default:
		return addr, 1 + r.Intn(160<<10)
	}
}

// randomExclusion draws an excluded range near the walks' footprint: half
// of them line-aligned whole lines, half with unaligned ends that cover
// lines only partially.
func randomExclusion(r *rand.Rand) addrRange {
	base := PhysAddr(r.Intn(4 << 20))
	size := uint64(r.Intn(256 << 10))
	if r.Intn(2) == 0 {
		base &^= CacheLineSize - 1
		size = (size + CacheLineSize - 1) &^ (CacheLineSize - 1)
	}
	return addrRange{base: base, size: size}
}

// TestChargeMemoryMatchesPerLineWalk runs the range-charged walk and the
// per-line walk side by side over random ranges, random L1 and L2
// exclusions (partial and whole lines, added and removed) and L1 flushes,
// on the HiKey960 SoC and on a two-core SoC. After every step the cycles
// each core was charged, every cache's Stats and the residency (Probe) of
// every line the step touched or evicted must agree, and so must every
// way's line, validity and LRU stamp.
func TestChargeMemoryMatchesPerLineWalk(t *testing.T) {
	for _, cfg := range []Config{HiKey960(), {BigCores: 2, DRAMSize: 256 << 20}} {
		t.Run(fmt.Sprintf("%dcores", cfg.BigCores+cfg.LittleCores), func(t *testing.T) {
			s := NewSoC(cfg)
			refL2 := newRefCache(L2Sets, L2Ways, CacheLineSize)
			refL1 := make([]*refCache, s.NumCores())
			refCycles := make([]uint64, s.NumCores())
			for i := range refL1 {
				refL1[i] = newRefCache(L1Sets, L1Ways, CacheLineSize)
			}
			r := rand.New(rand.NewSource(int64(s.NumCores())))
			var excl, l1Excl []addrRange
			for step := 0; step < 1500; step++ {
				ci := r.Intn(s.NumCores())
				c := s.Core(ci)
				var touched []PhysAddr
				switch op := r.Intn(40); {
				case op < 2:
					x := randomExclusion(r)
					excl = append(excl, x)
					s.l2.Exclude(x.base, x.size)
					refL2.Exclude(x.base, x.size)
				case op < 4 && len(excl) > 0:
					i := r.Intn(len(excl))
					x := excl[i]
					excl = append(excl[:i], excl[i+1:]...)
					if !s.l2.RemoveExclusion(x.base, x.size) || !refL2.RemoveExclusion(x.base, x.size) {
						t.Fatalf("step %d: exclusion %+v not found", step, x)
					}
				case op == 4:
					x := randomExclusion(r)
					l1Excl = append(l1Excl, x)
					c.l1.Exclude(x.base, x.size)
					refL1[ci].Exclude(x.base, x.size)
				case op == 5:
					c.l1.Flush()
					refL1[ci].Flush()
				default:
					addr, n := randomRange(r)
					before := c.Cycles()
					s.chargeMemory(c, addr, n)
					cy, evicted := refChargeMemory(refL1[ci], refL2, addr, n)
					refCycles[ci] += cy
					if got := c.Cycles() - before; got != cy {
						t.Fatalf("step %d: [%#x,+%d) on core %d charged %d cycles, per-line walk %d", step, addr, n, ci, got, cy)
					}
					for l := addr &^ (CacheLineSize - 1); l < addr+PhysAddr(n); l += CacheLineSize {
						touched = append(touched, l)
					}
					touched = append(touched, evicted...)
				}
				for i := range refL1 {
					if s.Core(i).Cycles() != refCycles[i] {
						t.Fatalf("step %d: core %d at %d cycles, per-line walk %d", step, i, s.Core(i).Cycles(), refCycles[i])
					}
				}
				for _, l := range touched {
					if s.l2.Probe(l) != refL2.Probe(l) || c.l1.Probe(l) != refL1[ci].Probe(l) {
						t.Fatalf("step %d: line %#x resident L1 %v / L2 %v, per-line walk %v / %v",
							step, l, c.l1.Probe(l), s.l2.Probe(l), refL1[ci].Probe(l), refL2.Probe(l))
					}
				}
				sameCacheState(t, fmt.Sprintf("step %d L2", step), s.l2, refL2)
				sameCacheState(t, fmt.Sprintf("step %d core %d L1", step, ci), c.l1, refL1[ci])
			}
			for i := range refL1 {
				sameCacheState(t, fmt.Sprintf("core %d L1", i), s.Core(i).l1, refL1[i])
			}
			if hits, misses := s.l2.Stats(); hits == 0 || misses == 0 || refL2.stamp == refL2.hits+refL2.misses {
				t.Fatalf("walks never exercised L2 hits, misses and bypasses together (%d/%d)", hits, misses)
			}
		})
	}
}

// TestCacheAccessMatchesPerLineModel drives Cache and the per-line model
// with the same random accesses, exclusions and flushes at the L1 and L2
// geometries and at a tiny one that evicts constantly: every Access must
// return the same hit, victim and eviction, and Probe, Bypasses and SetOf
// must agree.
func TestCacheAccessMatchesPerLineModel(t *testing.T) {
	for _, g := range [][3]int{{L1Sets, L1Ways, CacheLineSize}, {L2Sets, L2Ways, CacheLineSize}, {8, 2, 64}, {4, 3, 32}} {
		t.Run(fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2]), func(t *testing.T) {
			c, ref := NewCache(g[0], g[1], g[2]), newRefCache(g[0], g[1], g[2])
			r := rand.New(rand.NewSource(int64(g[0] * g[1])))
			span := 4 * g[0] * g[1] * g[2]
			for step := 0; step < 20000; step++ {
				addr := PhysAddr(r.Intn(span))
				switch op := r.Intn(100); {
				case op == 0:
					size := uint64(r.Intn(span / 8))
					c.Exclude(addr, size)
					ref.Exclude(addr, size)
				case op == 1 && len(ref.excluded) > 0:
					x := ref.excluded[r.Intn(len(ref.excluded))]
					c.RemoveExclusion(x.base, x.size)
					ref.RemoveExclusion(x.base, x.size)
				case op == 2:
					c.Flush()
					ref.Flush()
				default:
					h, e, v := c.Access(addr)
					rh, re, rv := ref.Access(addr)
					if h != rh || e != re || v != rv {
						t.Fatalf("step %d: Access(%#x) = %v %#x %v, per-line model %v %#x %v", step, addr, h, e, v, rh, re, rv)
					}
				}
				probe := PhysAddr(r.Intn(span))
				if c.Probe(probe) != ref.Probe(probe) || c.Bypasses(probe) != ref.Bypasses(probe) ||
					c.SetOf(probe) != ref.setIndex(ref.lineAddr(probe)) {
					t.Fatalf("step %d: Probe/Bypasses/SetOf(%#x) disagree with the per-line model", step, probe)
				}
			}
			sameCacheState(t, "end", c, ref)
		})
	}
}

// TestNewCacheRejectsNonPowerOfTwo: the set index is a shift and a mask,
// so a geometry it cannot express must not construct.
func TestNewCacheRejectsNonPowerOfTwo(t *testing.T) {
	for _, g := range [][3]int{{3, 2, 64}, {0, 2, 64}, {4, 2, 48}, {4, 0, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d, %d, %d) did not panic", g[0], g[1], g[2])
				}
			}()
			NewCache(g[0], g[1], g[2])
		}()
	}
}
