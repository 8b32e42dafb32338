package hw

import (
	"fmt"
	"time"
)

// SoC assembles the simulated platform: cores, DRAM, TZASC, caches and
// peripherals. All software layers perform memory and peripheral accesses
// through the SoC so that access control and cycle accounting are applied
// uniformly.
type SoC struct {
	cores  []*Core
	mem    *PhysMem
	tzasc  *TZASC
	l2     *Cache
	tzpc   *PeriphController
	mic    *Microphone
	flash  *Flash
	faults []BusFault
}

// Config describes a SoC to build. The zero value is replaced by HiKey960
// defaults.
type Config struct {
	BigCores    int
	LittleCores int
	BigHz       uint64
	LittleHz    uint64
	DRAMSize    uint64
}

// HiKey960 returns the configuration of the paper's evaluation board.
func HiKey960() Config {
	return Config{
		BigCores:    4,
		LittleCores: 4,
		BigHz:       BigCoreHz,
		LittleHz:    LittleCoreHz,
		DRAMSize:    DRAMSize,
	}
}

// NewSoC builds a SoC from cfg; zero fields take HiKey960 values.
func NewSoC(cfg Config) *SoC {
	def := HiKey960()
	if cfg.BigCores == 0 && cfg.LittleCores == 0 {
		cfg.BigCores, cfg.LittleCores = def.BigCores, def.LittleCores
	}
	if cfg.BigHz == 0 {
		cfg.BigHz = def.BigHz
	}
	if cfg.LittleHz == 0 {
		cfg.LittleHz = def.LittleHz
	}
	if cfg.DRAMSize == 0 {
		cfg.DRAMSize = def.DRAMSize
	}
	s := &SoC{
		mem:   NewPhysMem(cfg.DRAMSize),
		tzasc: NewTZASC(cfg.DRAMSize),
		l2:    NewCache(L2Sets, L2Ways, CacheLineSize),
		tzpc:  NewPeriphController(),
		mic:   NewMicrophone(),
		flash: NewFlash(),
	}
	id := 0
	for i := 0; i < cfg.BigCores; i++ {
		s.addCore(id, cfg.BigHz)
		id++
	}
	for i := 0; i < cfg.LittleCores; i++ {
		s.addCore(id, cfg.LittleHz)
		id++
	}
	return s
}

func (s *SoC) addCore(id int, hz uint64) {
	c := &Core{
		id:     id,
		hz:     hz,
		soc:    s,
		world:  NormalWorld,
		online: true,
		l1:     NewCache(L1Sets, L1Ways, CacheLineSize),
	}
	s.cores = append(s.cores, c)
}

// Core returns core i.
func (s *SoC) Core(i int) *Core { return s.cores[i] }

// NumCores returns the number of cores.
func (s *SoC) NumCores() int { return len(s.cores) }

// Cores returns all cores.
func (s *SoC) Cores() []*Core { return s.cores }

// Mem exposes raw DRAM for privileged software layers (firmware load) and
// for attacker models that simulate physical access in tests. Regular
// software must use Read/Write.
func (s *SoC) Mem() *PhysMem { return s.mem }

// TZASC returns the address space controller.
func (s *SoC) TZASC() *TZASC { return s.tzasc }

// TZPC returns the peripheral protection controller.
func (s *SoC) TZPC() *PeriphController { return s.tzpc }

// L2 returns the shared level-2 cache model.
func (s *SoC) L2() *Cache { return s.l2 }

// Microphone returns the board microphone.
func (s *SoC) Microphone() *Microphone { return s.mic }

// Flash returns the untrusted flash blob store.
func (s *SoC) Flash() *Flash { return s.flash }

// Faults returns the bus faults recorded so far (most recent last).
func (s *SoC) Faults() []BusFault { return s.faults }

func (s *SoC) recordFault(err error) {
	if f, ok := err.(*BusFault); ok {
		s.faults = append(s.faults, *f)
	}
}

// Read performs a checked, cycle-charged load of len(buf) bytes at addr on
// behalf of core c.
func (s *SoC) Read(c *Core, addr PhysAddr, buf []byte) error {
	return s.access(c, addr, buf, nil)
}

// Write performs a checked, cycle-charged store of data at addr on behalf of
// core c.
func (s *SoC) Write(c *Core, addr PhysAddr, data []byte) error {
	return s.access(c, addr, nil, data)
}

func (s *SoC) access(c *Core, addr PhysAddr, readBuf, writeData []byte) error {
	n := len(readBuf)
	write := false
	if writeData != nil {
		n = len(writeData)
		write = true
	}
	if n == 0 {
		return nil
	}
	if !c.online {
		return fmt.Errorf("hw: core %d is offline", c.id)
	}
	a := Access{Core: c.id, World: c.world, Addr: addr, Len: n, Write: write}
	if !s.mem.InRange(addr, n) {
		err := &BusFault{Access: a, Reason: "address outside DRAM"}
		s.recordFault(err)
		return err
	}
	if err := s.tzasc.Check(a); err != nil {
		s.recordFault(err)
		return err
	}
	s.chargeMemory(c, addr, n)
	if write {
		s.mem.Write(addr, writeData)
	} else {
		s.mem.Read(addr, readBuf)
	}
	return nil
}

// chargeMemory walks the cache hierarchy line by line and charges latency:
// each line hits L1, else L2, else goes to DRAM, and L2 sees only L1's
// misses. Exclusion is decided once per run of lines (Cache.bypassRun) and
// the walk's cycles are charged once; hit, miss, eviction and LRU state end
// exactly as if each line were an Access.
func (s *SoC) chargeMemory(c *Core, addr PhysAddr, n int) {
	line := PhysAddr(uint64(addr) &^ uint64(CacheLineSize-1))
	end := PhysAddr(uint64(addr) + uint64(n))
	var cycles uint64
	for line < end {
		l1Bypass, stop := c.l1.bypassRun(line, end)
		l2Bypass, l2Stop := s.l2.bypassRun(line, stop)
		for stop = l2Stop; line < stop; line += CacheLineSize {
			switch {
			case c.l1.lookup(line, l1Bypass):
				cycles += L1HitCycles
			case s.l2.lookup(line, l2Bypass):
				cycles += L2HitCycles
			default:
				cycles += DRAMCycles
			}
		}
	}
	c.Charge(cycles)
}

// MeasureAccess performs a read like Read but returns the cycles it cost,
// which is what a prime+probe attacker observes through timing.
func (s *SoC) MeasureAccess(c *Core, addr PhysAddr, n int) (uint64, error) {
	before := c.Cycles()
	buf := make([]byte, n)
	if err := s.Read(c, addr, buf); err != nil {
		return 0, err
	}
	return c.Cycles() - before, nil
}

// DMARead models a non-CPU bus master (e.g. a malicious DMA-capable device)
// reading memory. The TZASC's NoDMA attribute blocks it for protected
// regions.
func (s *SoC) DMARead(addr PhysAddr, buf []byte) error {
	a := Access{Core: -1, World: NormalWorld, Addr: addr, Len: len(buf)}
	if !s.mem.InRange(addr, len(buf)) {
		err := &BusFault{Access: a, Reason: "address outside DRAM"}
		s.recordFault(err)
		return err
	}
	if err := s.tzasc.Check(a); err != nil {
		s.recordFault(err)
		return err
	}
	s.mem.Read(addr, buf)
	return nil
}

// ReadMicInto drains up to len(dst) microphone samples into dst on behalf
// of core c, enforcing the TZPC assignment and charging FIFO transfer cost,
// and returns the transferred count.
func (s *SoC) ReadMicInto(c *Core, dst []int16) (int, error) {
	a := Access{Core: c.id, World: c.world, Len: len(dst)}
	if err := s.tzpc.Check(a, PeriphMicrophone); err != nil {
		s.recordFault(err)
		return 0, err
	}
	got := s.mic.DrainInto(dst)
	bursts := (got*2 + 63) / 64
	c.Charge(uint64(bursts) * PeriphCycles)
	return got, nil
}

// Elapsed returns the largest per-core simulated time, a convenient
// "wall clock" for multi-core protocol measurements.
func (s *SoC) Elapsed() time.Duration {
	var max time.Duration
	for _, c := range s.cores {
		if e := c.Elapsed(); e > max {
			max = e
		}
	}
	return max
}

// TotalBusy returns the sum of all cores' simulated busy time. Protocol
// phases execute mostly sequentially across cores, so deltas of TotalBusy
// approximate phase latency regardless of which core did the work.
func (s *SoC) TotalBusy() time.Duration {
	var sum time.Duration
	for _, c := range s.cores {
		sum += c.Elapsed()
	}
	return sum
}
