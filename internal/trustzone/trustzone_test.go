package trustzone

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
)

// Platform keys are expensive to generate (RSA-2048); share one set.
var (
	keysOnce sync.Once
	testKeys *PlatformKeys
	testRoot *omgcrypto.Identity
)

func platformKeys(t *testing.T) (*PlatformKeys, *omgcrypto.Identity) {
	t.Helper()
	keysOnce.Do(func() {
		rng := omgcrypto.NewDRBG("trustzone-test")
		var err error
		testRoot, err = omgcrypto.NewIdentity(rng, "device-vendor")
		if err != nil {
			t.Fatal(err)
		}
		testKeys, err = NewPlatformKeys(rng, testRoot, "hikey960")
		if err != nil {
			t.Fatal(err)
		}
	})
	return testKeys, testRoot
}

func testPlatform(t *testing.T) (*hw.SoC, *SecureOS, *omgcrypto.Identity) {
	t.Helper()
	keys, root := platformKeys(t)
	soc := hw.NewSoC(hw.Config{BigCores: 2, LittleCores: 2, DRAMSize: 64 << 20})
	sos, err := BootSecureOS(soc, NewMonitor(), SecureOSConfig{
		Keys:           keys,
		Rand:           omgcrypto.NewDRBG("enclave-keys"),
		EnclaveKeyBits: 1024, // keep the suite fast; cost model is unaffected
	})
	if err != nil {
		t.Fatal(err)
	}
	return soc, sos, root
}

func TestMonitorWorldSwitchSemantics(t *testing.T) {
	soc := hw.NewSoC(hw.Config{BigCores: 1, LittleCores: 0, DRAMSize: 1 << 20})
	mon := NewMonitor()
	core := soc.Core(0)
	var sawWorld hw.World
	sentinel := errors.New("secure-world error")
	core.ResetCycles()
	err := mon.Call(core, func() error {
		sawWorld = core.World()
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the secure-world function's error", err)
	}
	if sawWorld != hw.SecureWorld {
		t.Fatal("fn did not run in the secure world")
	}
	if core.World() != hw.NormalWorld {
		t.Fatal("world not restored after call")
	}
	// One round trip costs ~0.3 ms = 720k cycles at 2.4 GHz.
	want := uint64(hw.WorldSwitchTime.Nanoseconds()) * core.Hz() / 1_000_000_000
	if got := core.Cycles(); got != want {
		t.Fatalf("switch cost = %d cycles, want %d", got, want)
	}
	if mon.Switches() != 1 {
		t.Fatalf("switches = %d", mon.Switches())
	}
}

func TestMonitorOfflineCoreCannotCall(t *testing.T) {
	soc := hw.NewSoC(hw.Config{BigCores: 2, LittleCores: 0, DRAMSize: 1 << 20})
	mon := NewMonitor()
	if err := soc.Core(1).PowerOff(soc.Core(0)); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := mon.Call(soc.Core(1), func() error { ran = true; return nil }); err == nil || ran {
		t.Fatal("offline core issued an SMC")
	}
	if mon.Switches() != 0 {
		t.Fatalf("switches = %d after a refused SMC", mon.Switches())
	}
}

func TestSecureOSBootAssignsMicrophone(t *testing.T) {
	soc, _, _ := testPlatform(t)
	if got := soc.TZPC().WorldOf(hw.PeriphMicrophone); got != hw.SecureWorld {
		t.Fatalf("microphone assigned to %v", got)
	}
	soc.Microphone().Feed(make([]int16, 16))
	if _, err := soc.ReadMicInto(soc.Core(0), make([]int16, 16)); err == nil {
		t.Fatal("normal world read the secure microphone")
	}
}

func createTestEnclave(t *testing.T, soc *hw.SoC, sos *SecureOS, name string, allowMic bool) CreateResp {
	t.Helper()
	image := []byte("SL+" + name)
	if err := soc.Write(soc.Core(0), 0x100000, image); err != nil {
		t.Fatal(err)
	}
	created, err := sos.Create(soc.Core(0), CreateReq{
		Name: name, Base: 0x100000, PrivSize: 0x20000,
		SWBase: 0x200000, SWSize: 0x10000,
		Core: 1, AllowMic: allowMic,
	})
	if err != nil {
		t.Fatal(err)
	}
	return created
}

func TestEnclaveCreateLocksAndMeasures(t *testing.T) {
	soc, sos, root := testPlatform(t)
	created := createTestEnclave(t, soc, sos, "kws", true)

	// The enclave certificate chains to the device-vendor root.
	chain := []*omgcrypto.Certificate{created.EnclaveCert, testKeys.PlatformCert, testKeys.RootCert}
	if _, err := omgcrypto.VerifyChain(chain, root.Public()); err != nil {
		t.Fatalf("enclave certificate chain: %v", err)
	}

	// Private memory is now core-locked: OS core and secure world both fail.
	if err := soc.Read(soc.Core(0), 0x100000, make([]byte, 4)); err == nil {
		t.Fatal("OS core read locked enclave memory")
	}
	if err := soc.Read(soc.Core(1), 0x100000, make([]byte, 4)); err != nil {
		t.Fatalf("enclave core read its own memory: %v", err)
	}
	soc.Core(1).SetWorld(hw.SecureWorld)
	if err := soc.Read(soc.Core(1), 0x100000, make([]byte, 4)); err == nil {
		t.Fatal("secure world read enclave memory (two-way isolation broken)")
	}
	soc.Core(1).SetWorld(hw.NormalWorld)

	// Enclave memory bypasses the shared L2.
	if !soc.L2().Bypasses(0x100000) || !soc.L2().Bypasses(0x200000) {
		t.Fatal("enclave ranges not excluded from L2")
	}

	// Duplicate names are refused.
	if _, err := sos.Create(soc.Core(0), CreateReq{
		Name: "kws", Base: 0x300000, PrivSize: 0x1000, SWBase: 0x400000, SWSize: 0x1000, Core: 2,
	}); err == nil {
		t.Fatal("duplicate enclave created")
	}
}

func TestEnclaveAttestReportVerifies(t *testing.T) {
	soc, sos, root := testPlatform(t)
	created := createTestEnclave(t, soc, sos, "kws", false)
	nonce := []byte("verifier-nonce")
	report, chain, err := sos.Attest(soc.Core(0), "kws", nonce)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := omgcrypto.VerifyReport(report, chain, root.Public(), created.Measurement, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub) == 0 {
		t.Fatal("no enclave key in report")
	}
	if _, _, err := sos.Attest(soc.Core(0), "ghost", nil); err == nil {
		t.Fatal("attested unknown enclave")
	}
}

func TestPeriphReadPermissions(t *testing.T) {
	soc, sos, _ := testPlatform(t)
	createTestEnclave(t, soc, sos, "kws", true)
	soc.Microphone().Feed(make([]int16, 256))

	// From the wrong core: refused.
	if _, err := sos.ReadPeriph(soc.Core(0), "kws", hw.PeriphMicrophone, 16); err == nil {
		t.Fatal("peripheral read from non-enclave core succeeded")
	}
	// From the enclave core: works, deposits samples in the shared window.
	got, err := sos.ReadPeriph(soc.Core(1), "kws", hw.PeriphMicrophone, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 16 {
		t.Fatalf("deposited %d samples", got)
	}
	buf := make([]byte, 32)
	if err := soc.Read(soc.Core(1), 0x200000, buf); err != nil {
		t.Fatalf("enclave cannot read its shared-SW window: %v", err)
	}
	// Unknown peripheral and oversized requests are refused.
	if _, err := sos.ReadPeriph(soc.Core(1), "kws", "camera", 1); err == nil {
		t.Fatal("unknown peripheral read succeeded")
	}
	if _, err := sos.ReadPeriph(soc.Core(1), "kws", hw.PeriphMicrophone, 1<<20); err == nil {
		t.Fatal("oversized read succeeded")
	}
}

func TestPeriphReadDeniedWithoutPermission(t *testing.T) {
	soc, sos, _ := testPlatform(t)
	createTestEnclave(t, soc, sos, "noaudio", false)
	soc.Microphone().Feed(make([]int16, 16))
	if _, err := sos.ReadPeriph(soc.Core(1), "noaudio", hw.PeriphMicrophone, 8); err == nil {
		t.Fatal("mic read without permission succeeded")
	}
}

func TestEnclaveTeardownScrubsAndUnlocks(t *testing.T) {
	soc, sos, _ := testPlatform(t)
	createTestEnclave(t, soc, sos, "kws", false)
	secret := []byte("decrypted model weights")
	if err := soc.Write(soc.Core(1), 0x100100, secret); err != nil {
		t.Fatal(err)
	}
	if err := sos.Teardown(soc.Core(0), "kws"); err != nil {
		t.Fatal(err)
	}
	// Memory is unlocked again — and contains only zeros.
	buf := make([]byte, len(secret))
	if err := soc.Read(soc.Core(0), 0x100100, buf); err != nil {
		t.Fatalf("memory still locked after teardown: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x survived teardown scrub", i, b)
		}
	}
	if soc.L2().Bypasses(0x100000) {
		t.Fatal("L2 exclusion not removed at teardown")
	}
	if err := sos.Teardown(soc.Core(0), "kws"); err == nil {
		t.Fatal("double teardown succeeded")
	}
}

func TestEnclaveRebindMovesLock(t *testing.T) {
	soc, sos, _ := testPlatform(t)
	createTestEnclave(t, soc, sos, "kws", false)
	if err := sos.Rebind(soc.Core(0), "kws", 2); err != nil {
		t.Fatal(err)
	}
	if err := soc.Read(soc.Core(1), 0x100000, make([]byte, 4)); err == nil {
		t.Fatal("old core still has access after rebind")
	}
	if err := soc.Read(soc.Core(2), 0x100000, make([]byte, 4)); err != nil {
		t.Fatalf("new core has no access after rebind: %v", err)
	}
}

func TestCreateRejectsBadRequests(t *testing.T) {
	soc, sos, _ := testPlatform(t)
	if _, err := sos.Create(soc.Core(0), CreateReq{Name: "z", Base: 0x100000, PrivSize: 0, SWSize: 0, Core: 1}); err == nil {
		t.Fatal("zero-size enclave created")
	}
}

func TestBootSecureOSRequiresKeys(t *testing.T) {
	soc := hw.NewSoC(hw.Config{BigCores: 1, LittleCores: 0, DRAMSize: 1 << 20})
	if _, err := BootSecureOS(soc, NewMonitor(), SecureOSConfig{}); err == nil {
		t.Fatal("secure OS booted without platform keys")
	}
}

// TestEnclaveKeyGolden pins the public key the secure OS certifies for the
// fixture device's "kws" enclave: the HKDF(device secret, measurement) seed
// path into omgcrypto.DeterministicRSAKey. The key must survive any change
// to the prime search, or a relaunched enclave could no longer open the
// model ciphertexts provisioned to its previous identity.
func TestEnclaveKeyGolden(t *testing.T) {
	const want = "8e5fe96a04ed2d8e3b819cfedcf5ed8e09f01ff1df9d6597125501c4ba786bd3"
	soc, sos, _ := testPlatform(t)
	created := createTestEnclave(t, soc, sos, "kws", true)
	sum := sha256.Sum256(created.EnclaveCert.PublicKey)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("SHA-256(enclave public key) = %s, want %s", got, want)
	}
}
