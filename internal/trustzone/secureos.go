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
// attestation reports, and mediates secure peripheral access. Create,
// Attest, Rebind, Teardown and ReadPeriph are its services: each is one SMC
// from the given core, run inside Monitor.Call and charged one world switch.
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
	// services are serialized by the monitor, so no lock is needed.
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

// BootSecureOS installs the trusted OS behind the monitor and assigns the
// microphone to the secure world (§III-B: TrustZone allows to assign
// sensitive peripherals exclusively to the secure world).
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

// Create locks and measures an enclave's memory and creates its certified
// identity. Caller: the commodity OS (SANCTUARY driver), from its core.
func (s *SecureOS) Create(core *hw.Core, r CreateReq) (CreateResp, error) {
	var resp CreateResp
	err := s.mon.Call(core, func(ctx SecureContext) error {
		if _, exists := s.enclaves[r.Name]; exists {
			return fmt.Errorf("trustzone: enclave %q already exists", r.Name)
		}
		if r.PrivSize == 0 || r.SWSize == 0 {
			return errors.New("trustzone: create: empty region")
		}
		tz := s.soc.TZASC()

		// Phase 1: lock the private range for measurement — secure-only, so
		// the OS can no longer flip bits after the hash is taken (TOCTOU
		// defence).
		measureAttr := hw.RegionAttr{SecureRead: true, CoreLock: hw.AnyCore, NoDMA: true}
		if err := tz.Program(hw.SecureWorld, hw.Region{
			Name: "measure:" + r.Name, Base: r.Base, Size: r.PrivSize, Attr: measureAttr,
		}); err != nil {
			return err
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
				return fmt.Errorf("trustzone: measuring enclave: %w", err)
			}
			digest.Write(buf[:n])
		}
		ctx.Core.Charge(uint64(r.PrivSize) * hw.CyclesPerByteHash)
		var m omgcrypto.Measurement
		copy(m[:], digest.Sum(nil))
		if err := tz.Unprogram(hw.SecureWorld, "measure:"+r.Name); err != nil {
			return err
		}

		// Phase 2: final two-way isolation. The enclave runs as a
		// *normal-world* process on its dedicated core; neither other cores
		// nor the secure world may touch its private memory afterwards.
		privAttr := hw.RegionAttr{NormalRead: true, NormalWrite: true, CoreLock: r.Core, NoDMA: true}
		if err := tz.Program(hw.SecureWorld, hw.Region{
			Name: "sa:" + r.Name, Base: r.Base, Size: r.PrivSize, Attr: privAttr,
		}); err != nil {
			return err
		}
		// The shared-SW window is reachable from the enclave core in both
		// worlds: the SA reads/writes it in the normal world; the peripheral
		// service writes it in the secure world during an SMC on the same
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
			return err
		}

		// SANCTUARY cache defence: enclave memory bypasses the shared L2 so
		// co-resident cores observe no enclave-driven evictions (§III-B).
		s.soc.L2().Exclude(r.Base, r.PrivSize)
		s.soc.L2().Exclude(r.SWBase, r.SWSize)

		// Assign the enclave its certified identity, derived
		// deterministically from the device secret and the measurement:
		// relaunching the same image yields the same key pair, so previously
		// provisioned ciphertexts stay usable.
		keySeed := omgcrypto.HKDF(s.deviceSecret, []byte("omg-enclave-key"), m[:], 32)
		key, err := omgcrypto.DeterministicRSAKey(keySeed, s.keyBits)
		if err != nil {
			return fmt.Errorf("trustzone: enclave key generation: %w", err)
		}
		identity := &omgcrypto.Identity{Subject: "enclave/" + r.Name, Private: key}
		ctx.Core.ChargeDuration(hw.RSAKeygenTime)
		cert, err := omgcrypto.IssueCertificate(s.keys.Platform, identity.Subject, identity.Public())
		if err != nil {
			return err
		}
		ctx.Core.Charge(hw.CyclesPerRSA2048Sign)

		s.enclaves[r.Name] = &enclaveRecord{
			name: r.Name, base: r.Base, privSize: r.PrivSize,
			swBase: r.SWBase, swSize: r.SWSize, core: r.Core,
			allowMic: r.AllowMic, measurement: m, identity: identity, cert: cert,
		}
		resp = CreateResp{Measurement: m, EnclaveCert: cert}
		return nil
	})
	return resp, err
}

// Attest produces a report on the named enclave, signed by the platform key
// over the verifier-chosen nonce, and returns it with the platform chain.
// Caller: the commodity OS relaying a verifier, or the enclave itself.
func (s *SecureOS) Attest(core *hw.Core, name string, nonce []byte) (*omgcrypto.AttestationReport, []*omgcrypto.Certificate, error) {
	var report *omgcrypto.AttestationReport
	err := s.mon.Call(core, func(ctx SecureContext) error {
		rec, err := s.record(name)
		if err != nil {
			return err
		}
		report, err = omgcrypto.SignReport(s.keys.Platform, rec.measurement, rec.identity.Public(), nonce)
		if err != nil {
			return err
		}
		ctx.Core.Charge(hw.CyclesPerRSA2048Sign)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return report, s.keys.Chain(), nil
}

// Rebind moves a suspended enclave's memory lock to newCore
// (operation-phase core reallocation, §V). Caller: the commodity OS.
func (s *SecureOS) Rebind(core *hw.Core, name string, newCore int) error {
	return s.mon.Call(core, func(ctx SecureContext) error {
		rec, err := s.record(name)
		if err != nil {
			return err
		}
		tz := s.soc.TZASC()
		if err := tz.Unprogram(hw.SecureWorld, rec.privRegionName()); err != nil {
			return err
		}
		if err := tz.Unprogram(hw.SecureWorld, rec.swRegionName()); err != nil {
			return err
		}
		rec.core = newCore
		privAttr := hw.RegionAttr{NormalRead: true, NormalWrite: true, CoreLock: rec.core, NoDMA: true}
		if err := tz.Program(hw.SecureWorld, hw.Region{
			Name: rec.privRegionName(), Base: rec.base, Size: rec.privSize, Attr: privAttr,
		}); err != nil {
			return err
		}
		swAttr := hw.RegionAttr{
			NormalRead: true, NormalWrite: true,
			SecureRead: true, SecureWrite: true,
			CoreLock: rec.core, NoDMA: true,
		}
		return tz.Program(hw.SecureWorld, hw.Region{
			Name: rec.swRegionName(), Base: rec.swBase, Size: rec.swSize, Attr: swAttr,
		})
	})
}

// Teardown scrubs and unlocks the named enclave's memory. Caller: the
// commodity OS.
func (s *SecureOS) Teardown(core *hw.Core, name string) error {
	return s.mon.Call(core, func(ctx SecureContext) error {
		rec, err := s.record(name)
		if err != nil {
			return err
		}
		tz := s.soc.TZASC()
		// Scrub before unlock: retake the ranges as secure-only, zero them,
		// then drop the regions so the memory returns to the OS clean
		// (§III-B step 4).
		for _, part := range []struct {
			name string
			base hw.PhysAddr
			size uint64
		}{
			{rec.privRegionName(), rec.base, rec.privSize},
			{rec.swRegionName(), rec.swBase, rec.swSize},
		} {
			if err := tz.Unprogram(hw.SecureWorld, part.name); err != nil {
				return err
			}
			scrub := hw.RegionAttr{SecureRead: true, SecureWrite: true, CoreLock: hw.AnyCore, NoDMA: true}
			if err := tz.Program(hw.SecureWorld, hw.Region{Name: "scrub:" + part.name, Base: part.base, Size: part.size, Attr: scrub}); err != nil {
				return err
			}
			s.soc.Mem().Zero(part.base, part.size)
			ctx.Core.Charge(part.size * hw.CyclesPerByteCopy)
			if err := tz.Unprogram(hw.SecureWorld, "scrub:"+part.name); err != nil {
				return err
			}
			s.soc.L2().RemoveExclusion(part.base, part.size)
		}
		delete(s.enclaves, name)
		return nil
	})
}

// ReadPeriph reads up to n samples from secure peripheral periph on behalf
// of the named enclave, deposits them as PCM16 at the start of its
// shared-SW buffer and returns how many it deposited. Caller: the SA
// itself, from its bound core.
func (s *SecureOS) ReadPeriph(core *hw.Core, name string, periph hw.PeriphID, n int) (int, error) {
	got := 0
	err := s.mon.Call(core, func(ctx SecureContext) error {
		rec, err := s.record(name)
		if err != nil {
			return err
		}
		// Only the enclave itself — identified by its bound core — may pull
		// its peripheral data ("After checking the permission rights of the
		// SA", §III-B).
		if ctx.Core.ID() != rec.core {
			return fmt.Errorf("trustzone: periph read for %q from core %d, enclave bound to core %d",
				name, ctx.Core.ID(), rec.core)
		}
		if periph != hw.PeriphMicrophone {
			return fmt.Errorf("trustzone: peripheral %q not available", periph)
		}
		if !rec.allowMic {
			return fmt.Errorf("trustzone: enclave %q lacks microphone permission", name)
		}
		if uint64(n)*2 > rec.swSize {
			return fmt.Errorf("trustzone: %d samples exceed shared buffer (%d bytes)", n, rec.swSize)
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
		for got < n {
			moved, err := s.soc.ReadMicInto(ctx.Core, s.micSamples[:min(micChunk, n-got)])
			if err != nil {
				return err
			}
			if moved == 0 {
				break
			}
			// Deposit PCM16, packed from the window start.
			s.micBytes = pcm.Append(s.micBytes[:0], s.micSamples[:moved])
			if err := s.soc.Write(ctx.Core, rec.swBase+hw.PhysAddr(got*2), s.micBytes); err != nil {
				return fmt.Errorf("trustzone: depositing samples: %w", err)
			}
			got += moved
		}
		return nil
	})
	return got, err
}
