package trustzone

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/pcm"
)

// Secure-world services installed by the trusted OS.
const (
	// SvcEnclaveCreate locks and measures an enclave's memory and creates
	// its certified identity. Caller: the commodity OS (SANCTUARY driver).
	SvcEnclaveCreate ServiceID = "sanctuary.create"
	// SvcEnclaveAttest produces a signed attestation report for a verifier
	// nonce. Caller: the commodity OS, relaying verifier requests.
	SvcEnclaveAttest ServiceID = "sanctuary.attest"
	// SvcEnclaveRebind moves a suspended enclave's memory lock to a new
	// core (operation-phase core reallocation, §V).
	SvcEnclaveRebind ServiceID = "sanctuary.rebind"
	// SvcEnclaveTeardown scrubs and unlocks enclave memory.
	SvcEnclaveTeardown ServiceID = "sanctuary.teardown"
	// SvcPeriphRead reads a secure peripheral on behalf of the calling
	// enclave, depositing data in its secure-shared buffer. Caller: the SA
	// itself, from its bound core.
	SvcPeriphRead ServiceID = "periph.read"
)

// CreateReq asks the secure world to set up an enclave whose image the OS
// already copied to [Base, Base+PrivSize).
type CreateReq struct {
	Name     string
	Base     hw.PhysAddr
	PrivSize uint64
	SWBase   hw.PhysAddr // shared with secure world, bound to Core
	SWSize   uint64
	Core     int // CPU core dedicated to the enclave
	AllowMic bool
}

// CreateResp returns the measured identity of the new enclave.
type CreateResp struct {
	Measurement omgcrypto.Measurement
	EnclaveCert *omgcrypto.Certificate
}

// AttestReq asks for a signed report with a verifier-chosen nonce.
type AttestReq struct {
	Name  string
	Nonce []byte
}

// AttestResp carries the report plus the platform chain.
type AttestResp struct {
	Report *omgcrypto.AttestationReport
	Chain  []*omgcrypto.Certificate
}

// RebindReq moves the enclave's core lock to NewCore.
type RebindReq struct {
	Name    string
	NewCore int
}

// TeardownReq scrubs and unlocks the named enclave's memory.
type TeardownReq struct {
	Name string
}

// PeriphReadReq asks the secure world to read N samples from a secure
// peripheral into the calling enclave's shared-SW buffer.
type PeriphReadReq struct {
	Name   string
	Periph hw.PeriphID
	N      int
}

// PeriphReadResp reports how many samples were deposited at the start of the
// enclave's shared-SW buffer.
type PeriphReadResp struct {
	N int
}

// enclaveRecord is the secure world's book-keeping for one enclave.
type enclaveRecord struct {
	name        string
	base        hw.PhysAddr
	privSize    uint64
	swBase      hw.PhysAddr
	swSize      uint64
	core        int
	allowMic    bool
	measurement omgcrypto.Measurement
	identity    *omgcrypto.Identity
	cert        *omgcrypto.Certificate
}

func (r *enclaveRecord) privRegionName() string { return "sa:" + r.name }
func (r *enclaveRecord) swRegionName() string   { return "sa-sw:" + r.name }

// SecureOS is the trusted OS running in the secure world. It owns the
// platform keys, programs the TZASC and TZPC, measures enclaves, signs
// attestation reports, and mediates secure peripheral access.
type SecureOS struct {
	soc     *hw.SoC
	mon     *Monitor
	keys    *PlatformKeys
	rng     io.Reader
	keyBits int
	// deviceSecret seeds per-enclave key derivation so that the same image
	// on the same device always receives the same identity ("this key pair
	// is derived from the platform certificate", §V). That stability is
	// what lets OMG skip re-provisioning (steps 3–4) across enclave
	// relaunches until the model is updated.
	deviceSecret []byte
	enclaves     map[string]*enclaveRecord
	// micSamples/micBytes are the peripheral driver's drain and encode
	// scratch, grown on demand and reused across SMCs so the always-on
	// capture path performs no per-call heap allocation. Secure-world
	// handlers are serialized by the monitor, so no lock is needed.
	micSamples []int16
	micBytes   []byte
}

// SecureOSConfig configures the trusted OS.
type SecureOSConfig struct {
	Keys *PlatformKeys
	// Rand seeds enclave key generation; nil means omgcrypto.Rand.
	Rand io.Reader
	// EnclaveKeyBits sets the RSA modulus size of per-enclave identities.
	// 0 means omgcrypto.IdentityKeySize (2048); simulations may lower it to
	// keep runs fast, which affects no measured quantity (key generation
	// cost is charged from the hw cost model, not wall time).
	EnclaveKeyBits int
}

// BootSecureOS installs the trusted OS on the monitor: registers all
// services and assigns the microphone to the secure world (§III-B: TrustZone
// allows to assign sensitive peripherals exclusively to the secure world).
func BootSecureOS(soc *hw.SoC, mon *Monitor, cfg SecureOSConfig) (*SecureOS, error) {
	if cfg.Keys == nil {
		return nil, errors.New("trustzone: secure OS requires platform keys")
	}
	os := &SecureOS{
		soc:      soc,
		mon:      mon,
		keys:     cfg.Keys,
		rng:      cfg.Rand,
		keyBits:  cfg.EnclaveKeyBits,
		enclaves: make(map[string]*enclaveRecord),
	}
	if os.keyBits == 0 {
		os.keyBits = omgcrypto.IdentityKeySize
	}
	secret, err := omgcrypto.RandomBytes(os.rng, 32)
	if err != nil {
		return nil, err
	}
	os.deviceSecret = secret
	if err := soc.TZPC().Assign(hw.SecureWorld, hw.PeriphMicrophone, hw.SecureWorld); err != nil {
		return nil, err
	}
	mon.Register(SvcEnclaveCreate, os.handleCreate)
	mon.Register(SvcEnclaveAttest, os.handleAttest)
	mon.Register(SvcEnclaveRebind, os.handleRebind)
	mon.Register(SvcEnclaveTeardown, os.handleTeardown)
	mon.Register(SvcPeriphRead, os.handlePeriphRead)
	return os, nil
}

// Keys exposes the platform certificate chain (public material only).
func (s *SecureOS) Keys() *PlatformKeys { return s.keys }

// EnclaveIdentity returns the private identity of a running enclave. Only
// the SANCTUARY Library calls this during enclave boot, modelling SANCTUARY
// provisioning the key pair it "assigns to this enclave" (§V) directly into
// enclave-private memory; the identity never transits OS-visible state.
func (s *SecureOS) EnclaveIdentity(name string) (*omgcrypto.Identity, *omgcrypto.Certificate, error) {
	rec, ok := s.enclaves[name]
	if !ok {
		return nil, nil, fmt.Errorf("trustzone: unknown enclave %q", name)
	}
	return rec.identity, rec.cert, nil
}

func (s *SecureOS) record(name string) (*enclaveRecord, error) {
	rec, ok := s.enclaves[name]
	if !ok {
		return nil, fmt.Errorf("trustzone: unknown enclave %q", name)
	}
	return rec, nil
}

func (s *SecureOS) handleCreate(ctx SecureContext, req any) (any, error) {
	r, ok := req.(CreateReq)
	if !ok {
		return nil, fmt.Errorf("trustzone: create: bad request type %T", req)
	}
	if _, exists := s.enclaves[r.Name]; exists {
		return nil, fmt.Errorf("trustzone: enclave %q already exists", r.Name)
	}
	if r.PrivSize == 0 || r.SWSize == 0 {
		return nil, errors.New("trustzone: create: empty region")
	}
	tz := s.soc.TZASC()

	// Phase 1: lock the private range for measurement — secure-only, so the
	// OS can no longer flip bits after the hash is taken (TOCTOU defence).
	measureAttr := hw.RegionAttr{SecureRead: true, CoreLock: hw.AnyCore, NoDMA: true}
	if err := tz.Program(hw.SecureWorld, hw.Region{
		Name: "measure:" + r.Name, Base: r.Base, Size: r.PrivSize, Attr: measureAttr,
	}); err != nil {
		return nil, err
	}
	digest := sha256.New()
	buf := make([]byte, 4096)
	for off := uint64(0); off < r.PrivSize; off += uint64(len(buf)) {
		n := uint64(len(buf))
		if off+n > r.PrivSize {
			n = r.PrivSize - off
		}
		if err := s.soc.Read(ctx.Core, r.Base+hw.PhysAddr(off), buf[:n]); err != nil {
			_ = tz.Unprogram(hw.SecureWorld, "measure:"+r.Name)
			return nil, fmt.Errorf("trustzone: measuring enclave: %w", err)
		}
		digest.Write(buf[:n])
	}
	ctx.Core.Charge(uint64(r.PrivSize) * hw.CyclesPerByteHash)
	var m omgcrypto.Measurement
	copy(m[:], digest.Sum(nil))
	if err := tz.Unprogram(hw.SecureWorld, "measure:"+r.Name); err != nil {
		return nil, err
	}

	// Phase 2: final two-way isolation. The enclave runs as a *normal-world*
	// process on its dedicated core; neither other cores nor the secure
	// world may touch its private memory afterwards.
	privAttr := hw.RegionAttr{NormalRead: true, NormalWrite: true, CoreLock: r.Core, NoDMA: true}
	if err := tz.Program(hw.SecureWorld, hw.Region{
		Name: "sa:" + r.Name, Base: r.Base, Size: r.PrivSize, Attr: privAttr,
	}); err != nil {
		return nil, err
	}
	// The shared-SW window is reachable from the enclave core in both
	// worlds: the SA reads/writes it in the normal world; the peripheral
	// service writes it in the secure world during SMC handling on the same
	// core.
	swAttr := hw.RegionAttr{
		NormalRead: true, NormalWrite: true,
		SecureRead: true, SecureWrite: true,
		CoreLock: r.Core, NoDMA: true,
	}
	if err := tz.Program(hw.SecureWorld, hw.Region{
		Name: "sa-sw:" + r.Name, Base: r.SWBase, Size: r.SWSize, Attr: swAttr,
	}); err != nil {
		_ = tz.Unprogram(hw.SecureWorld, "sa:"+r.Name)
		return nil, err
	}

	// SANCTUARY cache defence: enclave memory bypasses the shared L2 so
	// co-resident cores observe no enclave-driven evictions (§III-B).
	s.soc.L2().Exclude(r.Base, r.PrivSize)
	s.soc.L2().Exclude(r.SWBase, r.SWSize)

	// Assign the enclave its certified identity, derived deterministically
	// from the device secret and the measurement: relaunching the same
	// image yields the same key pair, so previously provisioned ciphertexts
	// stay usable.
	keySeed := omgcrypto.HKDF(s.deviceSecret, []byte("omg-enclave-key"), m[:], 32)
	key, err := omgcrypto.DeterministicRSAKey(keySeed, s.keyBits)
	if err != nil {
		return nil, fmt.Errorf("trustzone: enclave key generation: %w", err)
	}
	identity := &omgcrypto.Identity{Subject: "enclave/" + r.Name, Private: key}
	ctx.Core.ChargeDuration(hw.RSAKeygenTime)
	cert, err := omgcrypto.IssueCertificate(s.keys.Platform, identity.Subject, identity.Public())
	if err != nil {
		return nil, err
	}
	ctx.Core.Charge(hw.CyclesPerRSA2048Sign)

	s.enclaves[r.Name] = &enclaveRecord{
		name: r.Name, base: r.Base, privSize: r.PrivSize,
		swBase: r.SWBase, swSize: r.SWSize, core: r.Core,
		allowMic: r.AllowMic, measurement: m, identity: identity, cert: cert,
	}
	return CreateResp{Measurement: m, EnclaveCert: cert}, nil
}

func (s *SecureOS) handleAttest(ctx SecureContext, req any) (any, error) {
	r, ok := req.(AttestReq)
	if !ok {
		return nil, fmt.Errorf("trustzone: attest: bad request type %T", req)
	}
	rec, err := s.record(r.Name)
	if err != nil {
		return nil, err
	}
	report, err := omgcrypto.SignReport(s.keys.Platform, rec.measurement, rec.identity.Public(), r.Nonce)
	if err != nil {
		return nil, err
	}
	ctx.Core.Charge(hw.CyclesPerRSA2048Sign)
	return AttestResp{Report: report, Chain: s.keys.Chain()}, nil
}

func (s *SecureOS) handleRebind(ctx SecureContext, req any) (any, error) {
	r, ok := req.(RebindReq)
	if !ok {
		return nil, fmt.Errorf("trustzone: rebind: bad request type %T", req)
	}
	rec, err := s.record(r.Name)
	if err != nil {
		return nil, err
	}
	tz := s.soc.TZASC()
	if err := tz.Unprogram(hw.SecureWorld, rec.privRegionName()); err != nil {
		return nil, err
	}
	if err := tz.Unprogram(hw.SecureWorld, rec.swRegionName()); err != nil {
		return nil, err
	}
	rec.core = r.NewCore
	privAttr := hw.RegionAttr{NormalRead: true, NormalWrite: true, CoreLock: rec.core, NoDMA: true}
	if err := tz.Program(hw.SecureWorld, hw.Region{
		Name: rec.privRegionName(), Base: rec.base, Size: rec.privSize, Attr: privAttr,
	}); err != nil {
		return nil, err
	}
	swAttr := hw.RegionAttr{
		NormalRead: true, NormalWrite: true,
		SecureRead: true, SecureWrite: true,
		CoreLock: rec.core, NoDMA: true,
	}
	return nil, tz.Program(hw.SecureWorld, hw.Region{
		Name: rec.swRegionName(), Base: rec.swBase, Size: rec.swSize, Attr: swAttr,
	})
}

func (s *SecureOS) handleTeardown(ctx SecureContext, req any) (any, error) {
	r, ok := req.(TeardownReq)
	if !ok {
		return nil, fmt.Errorf("trustzone: teardown: bad request type %T", req)
	}
	rec, err := s.record(r.Name)
	if err != nil {
		return nil, err
	}
	tz := s.soc.TZASC()
	// Scrub before unlock: retake the ranges as secure-only, zero them, then
	// drop the regions so the memory returns to the OS clean (§III-B step 4).
	for _, part := range []struct {
		name string
		base hw.PhysAddr
		size uint64
	}{
		{rec.privRegionName(), rec.base, rec.privSize},
		{rec.swRegionName(), rec.swBase, rec.swSize},
	} {
		if err := tz.Unprogram(hw.SecureWorld, part.name); err != nil {
			return nil, err
		}
		scrub := hw.RegionAttr{SecureRead: true, SecureWrite: true, CoreLock: hw.AnyCore, NoDMA: true}
		if err := tz.Program(hw.SecureWorld, hw.Region{Name: "scrub:" + part.name, Base: part.base, Size: part.size, Attr: scrub}); err != nil {
			return nil, err
		}
		s.soc.Mem().Zero(part.base, part.size)
		ctx.Core.Charge(part.size * hw.CyclesPerByteCopy)
		if err := tz.Unprogram(hw.SecureWorld, "scrub:"+part.name); err != nil {
			return nil, err
		}
		s.soc.L2().RemoveExclusion(part.base, part.size)
	}
	delete(s.enclaves, r.Name)
	return nil, nil
}

func (s *SecureOS) handlePeriphRead(ctx SecureContext, req any) (any, error) {
	r, ok := req.(PeriphReadReq)
	if !ok {
		return nil, fmt.Errorf("trustzone: periph: bad request type %T", req)
	}
	rec, err := s.record(r.Name)
	if err != nil {
		return nil, err
	}
	// Only the enclave itself — identified by its bound core — may pull its
	// peripheral data ("After checking the permission rights of the SA",
	// §III-B).
	if ctx.Core.ID() != rec.core {
		return nil, fmt.Errorf("trustzone: periph read for %q from core %d, enclave bound to core %d",
			r.Name, ctx.Core.ID(), rec.core)
	}
	if r.Periph != hw.PeriphMicrophone {
		return nil, fmt.Errorf("trustzone: peripheral %q not available", r.Periph)
	}
	if !rec.allowMic {
		return nil, fmt.Errorf("trustzone: enclave %q lacks microphone permission", r.Name)
	}
	if uint64(r.N)*2 > rec.swSize {
		return nil, fmt.Errorf("trustzone: %d samples exceed shared buffer (%d bytes)", r.N, rec.swSize)
	}
	// Drain, encode and deposit in FIFO-burst-sized chunks through the
	// reused scratch: bulk reads (an enclave batching several utterances
	// per SMC) keep a cache-resident working set instead of staging the
	// whole transfer, so batched capture costs the same per byte as
	// utterance-sized capture.
	const micChunk = 8 << 10 // samples per chunk
	if cap(s.micSamples) < micChunk {
		s.micSamples = make([]int16, micChunk)
	}
	got := 0
	for got < r.N {
		n := min(micChunk, r.N-got)
		moved, err := s.soc.ReadMicInto(ctx.Core, s.micSamples[:n])
		if err != nil {
			return nil, err
		}
		if moved == 0 {
			break
		}
		// Deposit PCM16, packed from the window start.
		s.micBytes = pcm.Append(s.micBytes[:0], s.micSamples[:moved])
		if err := s.soc.Write(ctx.Core, rec.swBase+hw.PhysAddr(got*2), s.micBytes); err != nil {
			return nil, fmt.Errorf("trustzone: depositing samples: %w", err)
		}
		got += moved
	}
	return PeriphReadResp{N: got}, nil
}
