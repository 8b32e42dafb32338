package sanctuary

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/trustzone"
)

var (
	keysOnce sync.Once
	testKeys *trustzone.PlatformKeys
	testRoot *omgcrypto.Identity
)

func platformKeys(t *testing.T) (*trustzone.PlatformKeys, *omgcrypto.Identity) {
	t.Helper()
	keysOnce.Do(func() {
		rng := omgcrypto.NewDRBG("sanctuary-test")
		var err error
		testRoot, err = omgcrypto.NewIdentity(rng, "device-vendor")
		if err != nil {
			t.Fatal(err)
		}
		testKeys, err = trustzone.NewPlatformKeys(rng, testRoot, "hikey960")
		if err != nil {
			t.Fatal(err)
		}
	})
	return testKeys, testRoot
}

func testManager(t *testing.T) (*hw.SoC, *Manager, *omgcrypto.Identity) {
	t.Helper()
	keys, root := platformKeys(t)
	soc := hw.NewSoC(hw.Config{BigCores: 2, LittleCores: 2, DRAMSize: 128 << 20})
	mon := trustzone.NewMonitor()
	sos, err := trustzone.BootSecureOS(soc, mon, trustzone.SecureOSConfig{
		Keys:           keys,
		Rand:           omgcrypto.NewDRBG("enclave-keys"),
		EnclaveKeyBits: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return soc, NewManager(soc, sos), root
}

func testImage(name string) Image {
	return Image{Name: name, Code: []byte("SL v1 || SA " + name)}
}

func smallConfig(name string, mic bool) Config {
	return Config{
		Image:        testImage(name),
		PrivateSize:  256 << 10,
		SharedSWSize: 64 << 10,
		AllowMic:     mic,
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	soc, mgr, root := testManager(t)
	e, err := mgr.Setup(smallConfig("kws", true))
	if err != nil {
		t.Fatal(err)
	}
	if e.State() != StateSetup {
		t.Fatalf("state after setup = %v", e.State())
	}
	// The enclave core was powered off during setup.
	if e.Core().Online() {
		t.Fatal("enclave core online before boot")
	}

	// Measurement matches what a remote verifier computes from the public
	// image.
	want, err := ExpectedMeasurement(testImage("kws"), 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if e.Measurement() != want {
		t.Fatal("platform measurement != expected measurement")
	}

	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateRunning || !e.Core().Online() {
		t.Fatal("boot did not bring the enclave up")
	}

	// Attestation through the OS relay verifies against the root.
	nonce := []byte("user-nonce")
	report, chain, err := mgr.Attest("kws", nonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omgcrypto.VerifyReport(report, chain, root.Public(), want, nonce); err != nil {
		t.Fatal(err)
	}

	// SA code runs with a working Env.
	err = e.Run(func(env *Env) error {
		if env.Identity() == nil {
			t.Fatal("no identity inside enclave")
		}
		if err := env.WritePriv(0x1000, []byte("activations")); err != nil {
			return err
		}
		buf := make([]byte, 11)
		if err := env.ReadPriv(0x1000, buf); err != nil {
			return err
		}
		if string(buf) != "activations" {
			t.Fatal("private memory round trip failed")
		}
		// Enclave-initiated attestation (vendor channel).
		rep, ch, err := env.Attest([]byte("vendor-nonce"))
		if err != nil {
			return err
		}
		if _, err := omgcrypto.VerifyReport(rep, ch, root.Public(), want, []byte("vendor-nonce")); err != nil {
			t.Fatal(err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Teardown(); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateTornDown {
		t.Fatalf("state after teardown = %v", e.State())
	}
	// The core is back in the OS pool.
	if !soc.Core(1).Online() {
		t.Fatal("core not returned to the OS")
	}
}

func TestIsolationFromOSAndDMA(t *testing.T) {
	soc, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("iso", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	secret := []byte("KU and plaintext model")
	if err := e.Run(func(env *Env) error { return env.WritePriv(0, secret) }); err != nil {
		t.Fatal(err)
	}
	if err := soc.Read(mgr.OSCore(), e.PrivBase(), make([]byte, 8)); err == nil {
		t.Fatal("commodity OS read enclave memory")
	}
	if err := soc.Write(mgr.OSCore(), e.PrivBase(), []byte{0}); err == nil {
		t.Fatal("commodity OS wrote enclave memory")
	}
	if err := soc.DMARead(e.PrivBase(), make([]byte, 8)); err == nil {
		t.Fatal("DMA read enclave memory")
	}
	// Physical snooping of the simulated DRAM shows the data is really
	// there — only the access control stands between the OS and the secret.
	raw := make([]byte, len(secret))
	soc.Mem().Read(e.PrivBase(), raw)
	if !bytes.Equal(raw, secret) {
		t.Fatal("test plumbing: secret not in DRAM")
	}
}

func TestEnvBoundsChecks(t *testing.T) {
	_, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("bounds", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	err = e.Run(func(env *Env) error {
		if err := env.WritePriv(e.PrivSize()-4, make([]byte, 8)); err == nil {
			t.Fatal("out-of-region private write allowed")
		}
		if err := env.ReadPriv(e.PrivSize(), make([]byte, 1)); err == nil {
			t.Fatal("out-of-region private read allowed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMicCaptureThroughSecureWorld(t *testing.T) {
	soc, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("mic", true))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	want := make([]int16, 320)
	for i := range want {
		want[i] = int16(i*37 - 5000)
	}
	soc.Microphone().Feed(want)
	err = e.Run(func(env *Env) error {
		before := env.Core().Cycles()
		got, err := env.CaptureMicInto(nil, len(want))
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			t.Fatalf("captured %d samples, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sample %d = %d, want %d", i, got[i], want[i])
			}
		}
		// The capture must have paid at least one world switch.
		minCycles := uint64(hw.WorldSwitchTime.Nanoseconds()) * env.Core().Hz() / 1_000_000_000
		if env.Core().Cycles()-before < minCycles {
			t.Fatal("mic capture did not pay the world-switch cost")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMicCaptureIntoReusesBuffer: the streaming capture path must decode
// into the caller's buffer (no reallocation when capacity suffices) and
// deliver the same samples as the allocating wrapper.
func TestMicCaptureIntoReusesBuffer(t *testing.T) {
	soc, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("micinto", true))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	want := make([]int16, 480)
	for i := range want {
		want[i] = int16(i*13 - 3000)
	}
	err = e.Run(func(env *Env) error {
		buf := make([]int16, len(want))
		for round := 0; round < 3; round++ {
			soc.Microphone().Feed(want)
			got, err := env.CaptureMicInto(buf, len(want))
			if err != nil {
				return err
			}
			if len(got) != len(want) || &got[0] != &buf[0] {
				t.Fatalf("round %d: CaptureMicInto reallocated despite sufficient capacity", round)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("round %d: sample %d = %d, want %d", round, i, got[i], want[i])
				}
			}
		}
		// Undersized buffers are grown, not overrun.
		soc.Microphone().Feed(want)
		got, err := env.CaptureMicInto(make([]int16, 2), len(want))
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			t.Fatalf("undersized buf: %d samples, want %d", len(got), len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMicCaptureDeniedWithoutPermission(t *testing.T) {
	soc, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("nomic", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	soc.Microphone().Feed(make([]int16, 16))
	err = e.Run(func(env *Env) error {
		if _, err := env.CaptureMicInto(nil, 16); err == nil {
			t.Fatal("mic capture without permission succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSuspendResumeKeepsMemoryLocked(t *testing.T) {
	soc, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("susp", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	state := []byte("decrypted model stays resident")
	if err := e.Run(func(env *Env) error { return env.WritePriv(64, state) }); err != nil {
		t.Fatal(err)
	}
	oldCore := e.Core()
	if err := e.Suspend(); err != nil {
		t.Fatal(err)
	}
	if e.State() != StateSuspended {
		t.Fatalf("state = %v", e.State())
	}
	if !oldCore.Online() {
		t.Fatal("suspended core not returned to the OS")
	}
	// Memory remains locked while suspended.
	if err := soc.Read(mgr.OSCore(), e.PrivBase()+64, make([]byte, 8)); err == nil {
		t.Fatal("OS read enclave memory during suspend")
	}
	// Busy the old core so resume picks a different one.
	oldCore.Charge(1 << 40)
	if err := e.Resume(); err != nil {
		t.Fatal(err)
	}
	if e.Core() == oldCore {
		t.Fatal("resume picked the busiest core")
	}
	// Old core lost access; new core sees the preserved state.
	if err := soc.Read(oldCore, e.PrivBase()+64, make([]byte, 8)); err == nil {
		t.Fatal("old core retains access after resume")
	}
	err = e.Run(func(env *Env) error {
		buf := make([]byte, len(state))
		if err := env.ReadPriv(64, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, state) {
			t.Fatal("enclave state lost across suspend/resume")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Teardown(); err != nil {
		t.Fatal(err)
	}
}

func TestTeardownScrubsMemory(t *testing.T) {
	soc, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("scrub", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0x5A}, 1024)
	if err := e.Run(func(env *Env) error { return env.WritePriv(0, secret) }); err != nil {
		t.Fatal(err)
	}
	base := e.PrivBase()
	if err := e.Teardown(); err != nil {
		t.Fatal(err)
	}
	// Region is unlocked now; the OS reads only zeros.
	buf := make([]byte, len(secret))
	if err := soc.Read(mgr.OSCore(), base, buf); err != nil {
		t.Fatalf("memory still locked after teardown: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x survived scrub", i, b)
		}
	}
}

func TestStateMachineRejectsInvalidTransitions(t *testing.T) {
	_, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("fsm", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(func(env *Env) error { return nil }); err == nil {
		t.Fatal("ran before boot")
	}
	if err := e.Suspend(); err == nil {
		t.Fatal("suspended before boot")
	}
	if err := e.Resume(); err == nil {
		t.Fatal("resumed before boot")
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err == nil {
		t.Fatal("double boot")
	}
	if err := e.Resume(); err == nil {
		t.Fatal("resumed while running")
	}
	if err := e.Teardown(); err != nil {
		t.Fatal(err)
	}
	if err := e.Teardown(); err == nil {
		t.Fatal("double teardown")
	}
	if err := e.Run(func(env *Env) error { return nil }); err == nil {
		t.Fatal("ran after teardown")
	}
}

func TestBlobStorageRoundTrip(t *testing.T) {
	soc, mgr, _ := testManager(t)
	e, err := mgr.Setup(smallConfig("blob", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	err = e.Run(func(env *Env) error {
		env.StoreBlob("model.enc", []byte("ciphertext"))
		got, ok := env.LoadBlob("model.enc")
		if !ok || !bytes.Equal(got, []byte("ciphertext")) {
			t.Fatal("blob round trip failed")
		}
		if _, ok := env.LoadBlob("missing"); ok {
			t.Fatal("loaded a missing blob")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The blob is on untrusted flash, visible to the OS (hence it must be
	// ciphertext).
	if _, ok := soc.Flash().Load("model.enc"); !ok {
		t.Fatal("blob not on flash")
	}
}

func TestExpectedMeasurementMatchesTamperedImageDetection(t *testing.T) {
	_, mgr, _ := testManager(t)
	img := testImage("genuine")
	e, err := mgr.Setup(Config{Image: img, PrivateSize: 128 << 10, SharedSWSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	good, err := ExpectedMeasurement(img, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if e.Measurement() != good {
		t.Fatal("genuine image measurement mismatch")
	}
	tampered := Image{Name: img.Name, Code: append([]byte(nil), img.Code...)}
	tampered.Code[0] ^= 1
	bad, err := ExpectedMeasurement(tampered, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	if bad == good {
		t.Fatal("tampered image has same measurement")
	}
	if _, err := ExpectedMeasurement(Image{Name: "big", Code: make([]byte, 1024)}, 512); err == nil {
		t.Fatal("oversized image accepted")
	}
}

func TestSetupErrors(t *testing.T) {
	_, mgr, _ := testManager(t)
	if _, err := mgr.Setup(Config{}); err == nil {
		t.Fatal("unnamed image accepted")
	}
	if _, err := mgr.Setup(Config{Image: Image{Name: "big", Code: make([]byte, 2048)}, PrivateSize: 1024}); err == nil {
		t.Fatal("oversized image accepted")
	}
	if _, err := mgr.Setup(smallConfig("dup", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Setup(smallConfig("dup", false)); err == nil {
		t.Fatal("duplicate enclave accepted")
	}
}

func TestSetupExhaustsCores(t *testing.T) {
	_, mgr, _ := testManager(t) // 4 cores, core 0 is the OS
	for i := 0; i < 3; i++ {
		cfg := smallConfig(string(rune('a'+i)), false)
		if _, err := mgr.Setup(cfg); err != nil {
			t.Fatalf("enclave %d: %v", i, err)
		}
	}
	if _, err := mgr.Setup(smallConfig("one-too-many", false)); err == nil {
		t.Fatal("more enclaves than spare cores")
	}
}

// TestTeardownReclaimsMemory launches and tears down more enclaves than
// DRAM holds at once. Until DRAM runs out each enclave lands past the last,
// as if none had been torn down; after that torn-down ranges are reused.
func TestTeardownReclaimsMemory(t *testing.T) {
	_, mgr, _ := testManager(t) // 128 MiB, the bottom 16 MiB left to the OS
	cfg := smallConfig("cycle", false)
	cfg.PrivateSize = 32 << 20 // three fit
	var prev hw.PhysAddr
	for i := 0; i < 10; i++ {
		e, err := mgr.Setup(cfg)
		if err != nil {
			t.Fatalf("setup %d: %v", i, err)
		}
		if i < 3 && e.PrivBase() <= prev {
			t.Fatalf("setup %d reused %#x while DRAM was left", i, e.PrivBase())
		}
		prev = e.PrivBase()
		if err := e.Boot(); err != nil {
			t.Fatal(err)
		}
		if err := e.Teardown(); err != nil {
			t.Fatal(err)
		}
	}
	cfg.PrivateSize = 256 << 20
	if _, err := mgr.Setup(cfg); err == nil {
		t.Fatal("setup larger than DRAM succeeded")
	}
}
