package hw

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func testSoC() *SoC {
	return NewSoC(Config{BigCores: 2, LittleCores: 2, DRAMSize: 1 << 24})
}

func TestSoCDefaultsToHiKey960(t *testing.T) {
	s := NewSoC(Config{})
	if s.NumCores() != 8 {
		t.Fatalf("cores = %d, want 8", s.NumCores())
	}
	if s.Core(0).Hz() != BigCoreHz || s.Core(7).Hz() != LittleCoreHz {
		t.Fatalf("core clocks = %d / %d", s.Core(0).Hz(), s.Core(7).Hz())
	}
	if s.Mem().Size() != DRAMSize {
		t.Fatalf("DRAM = %d", s.Mem().Size())
	}
}

func TestSoCReadWriteRoundTrip(t *testing.T) {
	s := testSoC()
	c := s.Core(0)
	want := []byte("offline model guard")
	if err := s.Write(c, 0x4000, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.Read(c, 0x4000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestSoCRoundTripProperty(t *testing.T) {
	s := testSoC()
	c := s.Core(1)
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 {
			return true
		}
		addr := PhysAddr(0x8000 + uint64(off))
		if err := s.Write(c, addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.Read(c, addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestSoCOutOfRangeFaults(t *testing.T) {
	s := testSoC()
	c := s.Core(0)
	err := s.Read(c, PhysAddr(s.Mem().Size()-4), make([]byte, 16))
	if err == nil || !IsBusFault(err) {
		t.Fatalf("want bus fault, got %v", err)
	}
	if len(s.Faults()) == 0 {
		t.Fatal("fault not recorded")
	}
}

func TestSoCOfflineCoreCannotAccess(t *testing.T) {
	s := testSoC()
	c := s.Core(2)
	if err := c.PowerOff(s.Core(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(c, 0, make([]byte, 4)); err == nil {
		t.Fatal("offline core performed a read")
	}
	if err := c.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if err := s.Read(c, 0, make([]byte, 4)); err != nil {
		t.Fatalf("read after power on: %v", err)
	}
}

func TestSoCEnclaveRegionEnforced(t *testing.T) {
	s := testSoC()
	err := s.TZASC().Program(SecureWorld, Region{
		Name: "sa", Base: 0x100000, Size: 0x10000,
		Attr: RegionAttr{NormalRead: true, NormalWrite: true, CoreLock: 3, NoDMA: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("model weights")
	if err := s.Write(s.Core(3), 0x100000, secret); err != nil {
		t.Fatalf("enclave core write: %v", err)
	}
	if err := s.Read(s.Core(0), 0x100000, make([]byte, 8)); err == nil {
		t.Fatal("commodity-OS core read enclave memory")
	}
	if err := s.DMARead(0x100000, make([]byte, 8)); err == nil {
		t.Fatal("DMA read enclave memory")
	}
	got := make([]byte, len(secret))
	if err := s.Read(s.Core(3), 0x100000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("enclave core read wrong data")
	}
}

func TestSoCMicrophoneAssignment(t *testing.T) {
	s := testSoC()
	s.Microphone().Feed(make([]int16, 160))
	// Default: normal world may read.
	buf := make([]int16, 80)
	if _, err := s.ReadMicInto(s.Core(0), buf); err != nil {
		t.Fatalf("normal-world mic read with default assignment: %v", err)
	}
	if err := s.TZPC().Assign(SecureWorld, PeriphMicrophone, SecureWorld); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadMicInto(s.Core(0), buf); err == nil {
		t.Fatal("normal world read secure-assigned microphone")
	}
	s.Core(1).SetWorld(SecureWorld)
	got, err := s.ReadMicInto(s.Core(1), buf)
	if err != nil {
		t.Fatalf("secure-world mic read: %v", err)
	}
	if got != 80 {
		t.Fatalf("drained %d samples, want 80", got)
	}
	if s.Microphone().Pending() != 0 {
		t.Fatalf("pending = %d, want 0", s.Microphone().Pending())
	}
	if err := s.TZPC().Assign(NormalWorld, PeriphMicrophone, NormalWorld); err == nil {
		t.Fatal("normal world reprogrammed the TZPC")
	}
}

func TestSoCCacheTimingObservable(t *testing.T) {
	s := testSoC()
	c := s.Core(0)
	cold, err := s.MeasureAccess(c, 0x9000, 4)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.MeasureAccess(c, 0x9000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if warm >= cold {
		t.Fatalf("warm access (%d cycles) not faster than cold (%d)", warm, cold)
	}
	if warm != L1HitCycles {
		t.Fatalf("warm = %d cycles, want L1 hit (%d)", warm, L1HitCycles)
	}
	if cold != DRAMCycles {
		t.Fatalf("cold = %d cycles, want DRAM (%d)", cold, DRAMCycles)
	}
}

func TestCoreClockConversion(t *testing.T) {
	s := testSoC()
	c := s.Core(0) // 2.4 GHz
	c.ResetCycles()
	c.ChargeDuration(1 * time.Millisecond)
	if got := c.Cycles(); got != 2_400_000 {
		t.Fatalf("1ms at 2.4GHz = %d cycles, want 2400000", got)
	}
	if e := c.Elapsed(); e < 999*time.Microsecond || e > 1001*time.Microsecond {
		t.Fatalf("elapsed = %v, want ~1ms", e)
	}
}

func TestFlashBlobStore(t *testing.T) {
	f := NewFlash()
	f.Store("model.enc", []byte{1, 2, 3})
	got, ok := f.Load("model.enc")
	if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("load = %v, %v", got, ok)
	}
	// Loads are copies: mutating the returned slice must not corrupt flash.
	got[0] = 99
	again, _ := f.Load("model.enc")
	if again[0] != 1 {
		t.Fatal("flash blob aliased caller memory")
	}
	if !f.Corrupt("model.enc", 1) {
		t.Fatal("corrupt failed")
	}
	tampered, _ := f.Load("model.enc")
	if tampered[1] == 2 {
		t.Fatal("corruption had no effect")
	}
	f.Delete("model.enc")
	if _, ok := f.Load("model.enc"); ok {
		t.Fatal("blob survived delete")
	}
}

func TestMemZeroScrubs(t *testing.T) {
	s := testSoC()
	c := s.Core(0)
	secret := bytes.Repeat([]byte{0xAA}, 300)
	if err := s.Write(c, 0x5000, secret); err != nil {
		t.Fatal(err)
	}
	s.Mem().Zero(0x5000, 300)
	got := make([]byte, 300)
	if err := s.Read(c, 0x5000, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x after scrub", i, b)
		}
	}
}

// TestMicrophoneFeedReusesDrainedFIFO: Speak feeds a drained FIFO once per
// query, so a feed that fits the backing array must not allocate, and
// samples fed behind undrained ones come out in order.
func TestMicrophoneFeedReusesDrainedFIFO(t *testing.T) {
	m := NewMicrophone()
	utt := make([]int16, 16000)
	for i := range utt {
		utt[i] = int16(i)
	}
	dst := make([]int16, len(utt))
	m.Feed(utt)
	m.DrainInto(dst)
	if a := testing.AllocsPerRun(20, func() {
		m.Feed(utt)
		m.DrainInto(dst)
	}); a != 0 {
		t.Fatalf("Feed into a drained FIFO: %v allocs/op, want 0", a)
	}
	m.Feed(utt[:100])
	if got := m.DrainInto(dst[:40]); got != 40 || m.Pending() != 60 {
		t.Fatalf("drained %d, %d pending; want 40, 60", got, m.Pending())
	}
	m.Feed(utt)
	m.Feed(utt[:5])
	want := append(append(append([]int16(nil), utt[40:100]...), utt...), utt[:5]...)
	got := make([]int16, len(want)+10)
	if n := m.DrainInto(got); !slices.Equal(got[:n], want) || m.Pending() != 0 {
		t.Fatalf("drained %d samples (%d pending), want the %d fed in order", n, m.Pending(), len(want))
	}
}
