package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/sanctuary"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

// sanctuaryConfigFor mirrors LaunchEnclave's config for hand-loaded
// (tampered) images.
func sanctuaryConfigFor(img sanctuary.Image) sanctuary.Config {
	return sanctuary.Config{Image: img, PrivateSize: EnclavePrivateSize, AllowMic: true}
}

// Long-lived RSA identities, generated once for the whole package.
var (
	idOnce   sync.Once
	rootID   *omgcrypto.Identity
	vendorID *omgcrypto.Identity
)

func identities(t *testing.T) (*omgcrypto.Identity, *omgcrypto.Identity) {
	t.Helper()
	idOnce.Do(func() {
		rng := omgcrypto.NewDRBG("core-test-ids")
		var err error
		if rootID, err = omgcrypto.NewIdentity(rng, "device-vendor"); err != nil {
			t.Fatal(err)
		}
		if vendorID, err = omgcrypto.NewIdentity(rng, "acme-models"); err != nil {
			t.Fatal(err)
		}
	})
	return rootID, vendorID
}

func newTestDevice(t *testing.T, seed string) *Device {
	t.Helper()
	root, _ := identities(t)
	dev, err := NewDevice(DeviceConfig{
		Root:           root,
		Rand:           omgcrypto.NewDRBG("device-" + seed),
		EnclaveKeyBits: 1024,
		SoC:            hw.Config{BigCores: 2, LittleCores: 2, DRAMSize: 128 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// testTinyConv builds a paper-shaped tiny_conv with deterministic random
// weights (seeded by version); protocol tests need no trained model.
func testTinyConv(t *testing.T, version uint64) *tflm.Model {
	t.Helper()
	m, err := tflm.BuildRandomTinyConv(1, int64(version)+100)
	if err != nil {
		t.Fatal(err)
	}
	m.Version = version
	return m
}

func newTestVendor(t *testing.T, version uint64) *Vendor {
	t.Helper()
	root, vid := identities(t)
	v, err := NewVendor(omgcrypto.NewDRBG("vendor-rng"), root.Public(), vid, testTinyConv(t, version), version)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func newTestSession(t *testing.T, seed string) *Session {
	t.Helper()
	root, _ := identities(t)
	dev := newTestDevice(t, seed)
	vendor := newTestVendor(t, 1)
	user, err := NewUser(root.Public(), vendor.Public())
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(dev, vendor, user, omgcrypto.NewDRBG("session-"+seed))
}

func speak(dev *Device, word string, take int) {
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	dev.Speak(gen.Utterance(word, 7, take))
}

// TestQueryBatchMatchesQuery: a batch of n queries inside one enclave Run
// must classify exactly like n individual queries over the same audio, and
// each batch result must own its probability storage (unlike Query, whose
// scratch is reused).
func TestQueryBatchMatchesQuery(t *testing.T) {
	s := newTestSession(t, "qbatch")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
	words := []string{"yes", "no", "stop", "go", "left"}
	// Serial ground truth.
	wantLabels := make([]int, len(words))
	wantProbs := make([][]float64, len(words))
	for i, w := range words {
		speak(s.Device, w, 0)
		res, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		wantLabels[i] = res.Label
		wantProbs[i] = append([]float64(nil), res.Probs...)
	}
	// Batched: queue all utterances, one QueryBatch.
	for _, w := range words {
		speak(s.Device, w, 0)
	}
	results, err := s.App.QueryBatch(len(words))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(words) {
		t.Fatalf("%d results for %d queries", len(results), len(words))
	}
	for i, r := range results {
		if r.Label != wantLabels[i] {
			t.Fatalf("utterance %d: batch label %d, serial label %d", i, r.Label, wantLabels[i])
		}
		for c := range r.Probs {
			if r.Probs[c] != wantProbs[i][c] {
				t.Fatalf("utterance %d class %d: batch prob %v, serial %v", i, c, r.Probs[c], wantProbs[i][c])
			}
		}
		if i > 0 && &r.Probs[0] == &results[i-1].Probs[0] {
			t.Fatalf("utterance %d aliases the previous result's probabilities", i)
		}
	}
	// Degenerate sizes.
	if res, err := s.App.QueryBatch(0); err != nil || res != nil {
		t.Fatalf("QueryBatch(0) = %v, %v", res, err)
	}
	// Batches larger than one shared-window capture (several SMC round
	// trips) still classify correctly; absent audio classifies as silence,
	// like Query.
	big := 2*int(s.App.Enclave().SWSize()/2)/16000 + 1
	for i := 0; i < big-1; i++ {
		speak(s.Device, "on", 0)
	}
	bigRes, err := s.App.QueryBatch(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < big-2; i++ {
		if bigRes[i].Label != bigRes[0].Label {
			t.Fatalf("multi-window batch utterance %d: label %d, want %d", i, bigRes[i].Label, bigRes[0].Label)
		}
	}
}

// TestQueryBatchRequiresInit mirrors Query's lifecycle guard.
func TestQueryBatchRequiresInit(t *testing.T) {
	s := newTestSession(t, "qbatch-noinit")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.App.QueryBatch(2); err == nil {
		t.Fatal("QueryBatch before Initialize succeeded")
	}
}

func TestFullProtocolEndToEnd(t *testing.T) {
	s := newTestSession(t, "e2e")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	// The user accepted the enclave.
	if len(s.User.VerifiedEnclaveKey()) == 0 {
		t.Fatal("user did not record the verified enclave key")
	}
	// The flash holds ciphertext only: no OMGM magic anywhere in the blob.
	blob, ok := s.Device.SoC.Flash().Load(ModelBlobName)
	if !ok {
		t.Fatal("no model package on flash")
	}
	if bytes.Contains(blob, []byte("OMGM")) {
		t.Fatal("plaintext model material on untrusted flash")
	}

	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
	if !s.App.Ready() || s.App.Version() != 1 {
		t.Fatal("app not initialized to v1")
	}
	// The decrypted model sits in enclave-private DRAM (physically present,
	// architecturally unreachable).
	priv := s.App.Enclave().PrivBase()
	raw := make([]byte, 4)
	s.Device.SoC.Mem().Read(priv+hw.PhysAddr(s.App.modelOffset), raw)
	if !bytes.Equal(raw, []byte("OMGM")) {
		t.Fatal("plaintext model not at expected enclave offset")
	}
	if err := s.Device.SoC.Read(s.Device.Sanctuary.OSCore(), priv+hw.PhysAddr(s.App.modelOffset), raw); err == nil {
		t.Fatal("commodity OS read the decrypted model")
	}

	// Operation phase: speak and classify.
	speak(s.Device, "yes", 0)
	res, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Label < 0 || res.Label >= 12 {
		t.Fatalf("label %d out of range", res.Label)
	}
	if len(res.Probs) != 12 {
		t.Fatalf("probs length %d", len(res.Probs))
	}
	// Same audio, same answer (determinism).
	speak(s.Device, "yes", 0)
	res2, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Label != res.Label {
		t.Fatal("same audio classified differently")
	}

	// Teardown scrubs the plaintext model from DRAM.
	if err := s.App.Teardown(); err != nil {
		t.Fatal(err)
	}
	s.Device.SoC.Mem().Read(priv+hw.PhysAddr(s.App.modelOffset), raw)
	if bytes.Equal(raw, []byte("OMGM")) {
		t.Fatal("plaintext model survived teardown")
	}
}

func TestStepsSkippableAfterFirstProvision(t *testing.T) {
	// Paper, Fig. 2: "Once the encrypted model is stored locally, steps in
	// gray [3-4] are optional until a model update." A relaunched enclave
	// must be able to initialize from the stored ciphertext alone.
	s := newTestSession(t, "skip")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
	if err := s.App.Teardown(); err != nil {
		t.Fatal(err)
	}
	// Relaunch: same image, same device → same enclave identity.
	app, err := LaunchEnclave(s.Device, s.Vendor.Public(), omgcrypto.NewDRBG("relaunch"))
	if err != nil {
		t.Fatal(err)
	}
	s.App = app
	if err := s.Initialize(); err != nil {
		t.Fatalf("initialization from cached ciphertext failed: %v", err)
	}
	speak(s.Device, "go", 1)
	if _, err := s.Query(); err != nil {
		t.Fatal(err)
	}
}

func TestTamperedImageRejected(t *testing.T) {
	root, _ := identities(t)
	dev := newTestDevice(t, "tamper")
	vendor := newTestVendor(t, 1)
	user, err := NewUser(root.Public(), vendor.Public())
	if err != nil {
		t.Fatal(err)
	}
	// A malicious OS loads a modified image (e.g. one that exfiltrates the
	// model). Setup succeeds — but the measurement differs.
	img := BuildImage(vendor.Public())
	img.Code[777] ^= 1
	e, err := dev.Sanctuary.Setup(sanctuaryConfigFor(img))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Boot(); err != nil {
		t.Fatal(err)
	}
	nonce := []byte("tamper-nonce")
	report, chain, err := dev.Sanctuary.Attest(img.Name, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := user.VerifyEnclave(report, chain, nonce); err == nil {
		t.Fatal("user accepted a tampered enclave")
	}
	if _, err := vendor.ProvisionModel(report, chain, nonce); err == nil {
		t.Fatal("vendor provisioned to a tampered enclave")
	}
}

func TestLicenseRevocation(t *testing.T) {
	s := newTestSession(t, "revoke")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	// Vendor revokes after provisioning (e.g. expired subscription).
	s.Vendor.Revoke(s.User.VerifiedEnclaveKey())
	if err := s.Initialize(); err == nil {
		t.Fatal("revoked enclave received KU")
	}
	// The enclave cannot decrypt without KU; the ciphertext is inert.
	if s.App.Ready() {
		t.Fatal("app initialized without a key")
	}
	// Reinstating restores service.
	s.Vendor.Reinstate(s.User.VerifiedEnclaveKey())
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackAndReplayFail(t *testing.T) {
	s := newTestSession(t, "rollback")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	// Capture the v1 artifacts the attacker will replay.
	oldBlob, _ := s.Device.SoC.Flash().Load(ModelBlobName)
	req1, err := s.App.RequestKey()
	if err != nil {
		t.Fatal(err)
	}
	resp1, err := s.Vendor.IssueKey(req1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.App.Initialize(resp1); err != nil {
		t.Fatal(err)
	}

	// Vendor ships v2; the enclave re-provisions (steps 3–4 run again).
	if err := s.Vendor.UpdateModel(testTinyConv(t, 2), 2); err != nil {
		t.Fatal(err)
	}
	nonce, _ := omgcrypto.RandomBytes(omgcrypto.NewDRBG("v2"), 16)
	report, chain, err := s.App.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	pkg2, err := s.Vendor.ProvisionModel(report, chain, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.App.StoreModelPackage(pkg2); err != nil {
		t.Fatal(err)
	}

	// Attack (a): the OS restores the old v1 ciphertext and asks for a key —
	// the vendor refuses to license the superseded version.
	s.Device.SoC.Flash().Store(ModelBlobName, oldBlob)
	reqOld, err := s.App.RequestKey()
	if err != nil {
		t.Fatal(err)
	}
	if reqOld.Version != 1 {
		t.Fatalf("stored version = %d", reqOld.Version)
	}
	if _, err := s.Vendor.IssueKey(reqOld); err == nil {
		t.Fatal("vendor issued a key for a superseded version")
	}

	// Attack (b): replay the captured v1 response — the nonce no longer
	// matches the in-flight request.
	if err := s.App.Initialize(resp1); err == nil {
		t.Fatal("replayed key response accepted")
	}

	// Attack (c): v2 key against the stale v1 blob fails the version
	// binding.
	req2, err := s.App.RequestKey()
	if err != nil {
		t.Fatal(err)
	}
	req2.Version = 2 // attacker forges the request version to get a v2 key
	resp2, err := s.Vendor.IssueKey(req2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.App.Initialize(resp2); err == nil {
		t.Fatal("v2 key decrypted the v1 blob")
	}

	// Honest path: restore the v2 blob; initialization succeeds.
	if err := s.App.StoreModelPackage(pkg2); err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
	if s.App.Version() != 2 {
		t.Fatalf("running version %d, want 2", s.App.Version())
	}
}

func TestCiphertextNotTransferableAcrossDevices(t *testing.T) {
	// Device A gets provisioned; its ciphertext is copied to device B.
	sA := newTestSession(t, "devA")
	if err := sA.Prepare(sA.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	stolen, _ := sA.Device.SoC.Flash().Load(ModelBlobName)

	devB := newTestDevice(t, "devB")
	appB, err := LaunchEnclave(devB, sA.Vendor.Public(), omgcrypto.NewDRBG("appB"))
	if err != nil {
		t.Fatal(err)
	}
	devB.SoC.Flash().Store(ModelBlobName, stolen)
	// B's enclave is genuine, so the vendor happily issues it a key — but
	// that key is derived from B's PK and cannot open A's ciphertext.
	reqB, err := appB.RequestKey()
	if err != nil {
		t.Fatal(err)
	}
	respB, err := sA.Vendor.IssueKey(reqB)
	if err != nil {
		t.Fatal(err)
	}
	if err := appB.Initialize(respB); err == nil {
		t.Fatal("device B decrypted device A's ciphertext")
	}
}

func TestInitializeRequiresRequest(t *testing.T) {
	s := newTestSession(t, "noreq")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	req, err := s.App.RequestKey()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Vendor.IssueKey(req)
	if err != nil {
		t.Fatal(err)
	}
	// Forged signature is refused.
	forged := *resp
	forged.VendorSig = append([]byte(nil), resp.VendorSig...)
	forged.VendorSig[0] ^= 1
	if err := s.App.Initialize(&forged); err == nil {
		t.Fatal("forged vendor signature accepted")
	}
	// Honest response still works (nonce still pending).
	if err := s.App.Initialize(resp); err != nil {
		t.Fatal(err)
	}
	// Re-delivery after consumption is refused.
	if err := s.App.Initialize(resp); err == nil {
		t.Fatal("consumed key response accepted twice")
	}
}

func TestQueryBeforeInitializeFails(t *testing.T) {
	s := newTestSession(t, "early")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	speak(s.Device, "no", 0)
	if _, err := s.Query(); err == nil {
		t.Fatal("query answered before initialization")
	}
}

func TestSuspendResumeAcrossQueries(t *testing.T) {
	s := newTestSession(t, "susres")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
	speak(s.Device, "stop", 0)
	res1, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.App.Suspend(); err != nil {
		t.Fatal(err)
	}
	// Memory stays locked while suspended.
	if err := s.Device.SoC.Read(s.Device.Sanctuary.OSCore(), s.App.Enclave().PrivBase(), make([]byte, 4)); err == nil {
		t.Fatal("OS read enclave memory during suspend")
	}
	if err := s.App.Resume(); err != nil {
		t.Fatal(err)
	}
	speak(s.Device, "stop", 0)
	res2, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Label != res2.Label {
		t.Fatal("prediction changed across suspend/resume")
	}
}

// TestProtectedMatchesPlainBaseline is the Table I accuracy mechanism: the
// protected and unprotected deployments run the identical interpreter, so
// their predictions must agree utterance for utterance.
func TestProtectedMatchesPlainBaseline(t *testing.T) {
	s := newTestSession(t, "parity")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}

	// Plain deployment on a separate simulated device (mic normal-world).
	plainSoC := hw.NewSoC(hw.Config{BigCores: 1, LittleCores: 0, DRAMSize: 16 << 20})
	plain, err := NewPlainRunner(plainSoC, 0, testTinyConv(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	words := []string{"yes", "no", "up", "down", "left"}
	for i, w := range words {
		utt := gen.Utterance(w, 11, i)
		s.Device.Speak(utt)
		protected, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		plainSoC.Microphone().Feed(utt)
		unprotected, err := plain.Query()
		if err != nil {
			t.Fatal(err)
		}
		if protected.Label != unprotected.Label {
			t.Fatalf("word %q: protected=%d plain=%d", w, protected.Label, unprotected.Label)
		}
	}
}

// TestOMGOverheadIsSmall pre-validates the Table I runtime shape: the
// per-query cost with OMG must exceed the plain baseline only by the world
// switch and IPC copies — single-digit percent, not multiples.
func TestOMGOverheadIsSmall(t *testing.T) {
	s := newTestSession(t, "overhead")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
	plainSoC := hw.NewSoC(hw.Config{BigCores: 1, LittleCores: 0, DRAMSize: 16 << 20})
	plain, err := NewPlainRunner(plainSoC, 0, testTinyConv(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utt := gen.Utterance("right", 3, 0)

	s.Device.Speak(utt)
	encCore := s.App.Enclave().Core()
	encCore.ResetCycles()
	if _, err := s.Query(); err != nil {
		t.Fatal(err)
	}
	protectedTime := encCore.Elapsed()

	plainSoC.Microphone().Feed(utt)
	plain.Core().ResetCycles()
	if _, err := plain.Query(); err != nil {
		t.Fatal(err)
	}
	plainTime := plain.Core().Elapsed()

	if protectedTime <= plainTime {
		t.Fatalf("OMG (%v) not slower than plain (%v)?", protectedTime, plainTime)
	}
	overhead := float64(protectedTime-plainTime) / float64(plainTime)
	if overhead > 0.20 {
		t.Fatalf("OMG overhead %.1f%% too large (paper: ~2%%)", overhead*100)
	}
	t.Logf("plain %v, OMG %v, overhead %.1f%%", plainTime, protectedTime, overhead*100)
}

// TestTable1QueriesAllocationFree pins the steady-state heap cost of both
// Table I queries, Speak included: each reuses its capture, fingerprint,
// probabilities and result, and the microphone FIFO its backing array, so
// neither query allocates. The protected query's SMC is a typed call whose
// secure-world closure, the enclave's Env and the monitor's SecureContext
// all stay off the heap.
func TestTable1QueriesAllocationFree(t *testing.T) {
	s := newTestSession(t, "allocs")
	if err := s.Prepare(s.Vendor.Public()); err != nil {
		t.Fatal(err)
	}
	if err := s.Initialize(); err != nil {
		t.Fatal(err)
	}
	plainSoC := hw.NewSoC(hw.Config{BigCores: 1, LittleCores: 0, DRAMSize: 16 << 20})
	plain, err := NewPlainRunner(plainSoC, 0, testTinyConv(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	utt := speechcmd.NewGenerator(speechcmd.DefaultConfig()).Utterance("yes", 3, 0)
	omg := func() {
		s.Device.Speak(utt)
		if _, err := s.Query(); err != nil {
			t.Fatal(err)
		}
	}
	unprotected := func() {
		plainSoC.Microphone().Feed(utt)
		if _, err := plain.Query(); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(20, unprotected); a != 0 {
		t.Errorf("plain query: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, omg); a != 0 {
		t.Errorf("OMG query: %v allocs/op, want 0", a)
	}
	for _, q := range []struct {
		name string
		op   func()
	}{{"OMG", omg}, {"plain", unprotected}} {
		if b := heapBytesPerOp(20, q.op); b >= 1024 {
			t.Errorf("%s query: %.0f heap B/op, want < 1024", q.name, b)
		}
	}
}

// heapBytesPerOp returns the heap bytes op allocates per call, averaged
// over n calls after one warm-up call.
func heapBytesPerOp(n int, op func()) float64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func TestVendorValidation(t *testing.T) {
	root, vid := identities(t)
	if _, err := NewVendor(omgcrypto.NewDRBG("v"), root.Public(), vid, testTinyConv(t, 1), 0); err == nil {
		t.Fatal("version 0 accepted")
	}
	v := newTestVendor(t, 3)
	if err := v.UpdateModel(testTinyConv(t, 2), 2); err == nil {
		t.Fatal("version decrease accepted")
	}
}

func TestModelPackageMarshal(t *testing.T) {
	pkg := &ModelPackage{Version: 7, Blob: []byte{1, 2, 3}}
	got, err := UnmarshalModelPackage(pkg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 7 || !bytes.Equal(got.Blob, pkg.Blob) {
		t.Fatal("round trip mismatch")
	}
	if _, err := UnmarshalModelPackage([]byte{1, 2}); err == nil {
		t.Fatal("truncated package parsed")
	}
	// A legal 8-byte package — version header with an empty blob — must
	// round-trip; the pre-fix parser rejected its own Marshal output.
	empty := &ModelPackage{Version: 42}
	if n := len(empty.Marshal()); n != 8 {
		t.Fatalf("empty-blob package marshals to %d bytes, want 8", n)
	}
	got, err = UnmarshalModelPackage(empty.Marshal())
	if err != nil {
		t.Fatalf("empty-blob package rejected: %v", err)
	}
	if got.Version != 42 || len(got.Blob) != 0 {
		t.Fatalf("empty-blob round trip: version %d, blob %d bytes", got.Version, len(got.Blob))
	}
	// 7 bytes is still truncated.
	if _, err := UnmarshalModelPackage(empty.Marshal()[:7]); err == nil {
		t.Fatal("7-byte package parsed")
	}
}
