package sanctuary

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/pcm"
)

// Enclave is a SANCTUARY App instance. Methods on Enclave model operations
// the commodity OS (Manager) performs on the enclave's behalf; code running
// *inside* the enclave acts through the Env passed to Run.
type Enclave struct {
	mgr         *Manager
	name        string
	cfg         Config
	core        *hw.Core
	privBase    hw.PhysAddr
	swBase      hw.PhysAddr
	measurement omgcrypto.Measurement
	cert        *omgcrypto.Certificate
	identity    *omgcrypto.Identity
	state       State
	// micScratch is the enclave-owned byte staging buffer for microphone
	// reads, grown on demand and reused so steady-state capture does not
	// allocate. The enclave is single-threaded, so no lock is needed.
	micScratch []byte
	// env is the Env every Run hands its SA code; it only points back at
	// the enclave, so one per enclave serves every run without a
	// per-query allocation.
	env Env
}

// State returns the current life-cycle state.
func (e *Enclave) State() State { return e.state }

// Core returns the core the enclave is currently bound to.
func (e *Enclave) Core() *hw.Core { return e.core }

// Measurement returns the platform-computed measurement taken at setup.
func (e *Enclave) Measurement() omgcrypto.Measurement { return e.measurement }

// PrivBase returns the base of the enclave-private region (used by attack
// simulations in tests; the OS cannot successfully access it).
func (e *Enclave) PrivBase() hw.PhysAddr { return e.privBase }

// PrivSize returns the size of the enclave-private region.
func (e *Enclave) PrivSize() uint64 { return e.cfg.PrivateSize }

// SWSize returns the size of the window shared with the secure world, which
// bounds how much peripheral data one SMC round trip can deliver.
func (e *Enclave) SWSize() uint64 { return e.cfg.SharedSWSize }

// Boot performs life-cycle step 2: powers the dedicated core on with the
// SANCTUARY Library, which receives the enclave's certified identity from
// the secure world into enclave-private memory.
func (e *Enclave) Boot() error {
	if e.state != StateSetup {
		return fmt.Errorf("sanctuary: boot from state %v", e.state)
	}
	if err := e.core.PowerOn(); err != nil {
		return err
	}
	id, _, err := e.mgr.sos.EnclaveIdentity(e.name)
	if err != nil {
		return err
	}
	e.identity = id
	e.state = StateRunning
	return nil
}

// Run executes SA code on the enclave's core. The function receives an Env
// through which all memory, peripheral and OS interactions flow, so that
// every access is subject to the platform's checks and cycle accounting.
func (e *Enclave) Run(f func(env *Env) error) error {
	if e.state != StateRunning {
		return fmt.Errorf("sanctuary: run from state %v", e.state)
	}
	return f(&e.env)
}

// Suspend hands the enclave's core back to the commodity OS while keeping
// its memory locked (§V: between queries "the SANCTUARY core can be
// reallocated to the commodity OS while the memory is still locked").
func (e *Enclave) Suspend() error {
	if e.state != StateRunning {
		return fmt.Errorf("sanctuary: suspend from state %v", e.state)
	}
	e.core.InvalidateL1()
	if err := e.core.PowerOff(e.mgr.osCore); err != nil {
		return err
	}
	if err := e.core.PowerOn(); err != nil { // core returns to the OS pool
		return err
	}
	e.state = StateSuspended
	return nil
}

// Resume re-allocates a (possibly different) core, rebinds the locked memory
// to it via the secure world, and continues execution.
func (e *Enclave) Resume() error {
	if e.state != StateSuspended {
		return fmt.Errorf("sanctuary: resume from state %v", e.state)
	}
	core, err := e.mgr.leastBusyCore()
	if err != nil {
		return err
	}
	if err := core.PowerOff(e.mgr.osCore); err != nil {
		return err
	}
	if err := e.mgr.sos.Rebind(e.mgr.osCore, e.name, core.ID()); err != nil {
		_ = core.PowerOn()
		return fmt.Errorf("sanctuary: rebind: %w", err)
	}
	if err := core.PowerOn(); err != nil {
		return err
	}
	e.core = core
	e.state = StateRunning
	return nil
}

// Teardown performs life-cycle step 4: the core is shut down, its L1 is
// invalidated, the SA memory is scrubbed and unlocked by the secure world,
// and the core is handed back to the commodity OS.
func (e *Enclave) Teardown() error {
	switch e.state {
	case StateRunning:
		e.core.InvalidateL1()
		if err := e.core.PowerOff(e.mgr.osCore); err != nil {
			return err
		}
	case StateSuspended:
		// Core already returned to the OS.
	default:
		return fmt.Errorf("sanctuary: teardown from state %v", e.state)
	}
	if err := e.mgr.sos.Teardown(e.mgr.osCore, e.name); err != nil {
		return fmt.Errorf("sanctuary: secure-world teardown: %w", err)
	}
	if e.state == StateRunning {
		if err := e.core.PowerOn(); err != nil { // hand the core back
			return err
		}
	}
	e.state = StateTornDown
	delete(e.mgr.enclaves, e.name)
	e.mgr.free(span{e.privBase, e.cfg.PrivateSize}, span{e.swBase, e.cfg.SharedSWSize})
	return nil
}

// Env is the execution environment of SA code: the SANCTUARY Library's
// system interface. All its operations run on the enclave's core and are
// charged and checked by the simulated platform.
type Env struct {
	enclave *Enclave
}

// Core returns the core the SA executes on.
func (env *Env) Core() *hw.Core { return env.enclave.core }

// Identity returns the enclave's private identity (PK/SK pair from §V).
// Only SA code can reach it; the Manager offers no accessor.
func (env *Env) Identity() *omgcrypto.Identity { return env.enclave.identity }

// WritePriv stores data at the given offset of the enclave-private region.
func (env *Env) WritePriv(off uint64, data []byte) error {
	e := env.enclave
	if off+uint64(len(data)) > e.cfg.PrivateSize {
		return fmt.Errorf("sanctuary: private write [%d,%d) outside region", off, off+uint64(len(data)))
	}
	e.core.Charge(uint64(len(data)) * hw.CyclesPerByteCopy)
	return e.mgr.soc.Write(e.core, e.privBase+hw.PhysAddr(off), data)
}

// ReadPriv loads len(buf) bytes from the given offset of the private region.
func (env *Env) ReadPriv(off uint64, buf []byte) error {
	e := env.enclave
	if off+uint64(len(buf)) > e.cfg.PrivateSize {
		return fmt.Errorf("sanctuary: private read [%d,%d) outside region", off, off+uint64(len(buf)))
	}
	e.core.Charge(uint64(len(buf)) * hw.CyclesPerByteCopy)
	return e.mgr.soc.Read(e.core, e.privBase+hw.PhysAddr(off), buf)
}

// Attest obtains an attestation report bound to the caller-supplied nonce,
// as the enclave does when opening the secure channel to the vendor (§V
// step 2).
func (env *Env) Attest(nonce []byte) (*omgcrypto.AttestationReport, []*omgcrypto.Certificate, error) {
	e := env.enclave
	return e.mgr.sos.Attest(e.core, e.name, nonce)
}

// CaptureMicInto pulls n PCM16 samples from the secure microphone through
// the secure world (§V step 7): one SMC round trip, after which the samples
// are read from the shared-SW window on the enclave's core into buf. buf is
// reused when its capacity suffices and reallocated otherwise, and the byte
// staging goes through an enclave-owned scratch buffer, so repeated captures
// (the always-on operation phase) perform no per-call heap allocation on the
// enclave side. It returns the decoded samples.
func (env *Env) CaptureMicInto(buf []int16, n int) ([]int16, error) {
	got, err := env.CaptureMicBulk(n)
	if err != nil {
		return nil, err
	}
	return env.ReadMicWindow(buf, 0, got)
}

// CaptureMicBulk performs the SMC round trip of CaptureMicInto without decoding:
// up to n samples are drained from the secure microphone into the shared-SW
// window and the deposited count is returned. Callers decode slices of the
// deposit with ReadMicWindow; requesting several utterances per call is how
// a batch amortizes the world switch.
func (env *Env) CaptureMicBulk(n int) (int, error) {
	e := env.enclave
	return e.mgr.sos.ReadPeriph(e.core, e.name, hw.PeriphMicrophone, n)
}

// ReadMicWindow decodes n PCM16 samples starting at sample offset off of the
// shared-SW window into buf (reused when its capacity suffices), charging
// the copy to the enclave core. Reading utterance-sized slices keeps the
// working set small even when a bulk capture deposited far more.
func (env *Env) ReadMicWindow(buf []int16, off, n int) ([]int16, error) {
	e := env.enclave
	if n < 0 || off < 0 || uint64(off+n)*2 > e.cfg.SharedSWSize {
		return nil, fmt.Errorf("sanctuary: mic window read [%d,%d) outside shared window", off, off+n)
	}
	if need := n * 2; cap(e.micScratch) < need {
		e.micScratch = make([]byte, need)
	}
	raw := e.micScratch[:n*2]
	if err := e.mgr.soc.Read(e.core, e.swBase+hw.PhysAddr(off*2), raw); err != nil {
		return nil, fmt.Errorf("sanctuary: reading shared-SW window: %w", err)
	}
	e.core.Charge(uint64(len(raw)) * hw.CyclesPerByteCopy)
	return pcm.Decode(buf, raw), nil
}

// StoreBlob asks the commodity OS to persist a blob to untrusted flash
// (§V step 4: "the enclave then stores the model locally in unprotected
// storage"). The data crosses an OS IPC boundary, so both sides pay copy
// costs; the content must already be protected (encrypted) by the caller.
func (env *Env) StoreBlob(name string, data []byte) {
	e := env.enclave
	e.core.Charge(uint64(len(data)) * hw.CyclesPerByteCopy)
	e.mgr.osCore.Charge(uint64(len(data)) * hw.CyclesPerByteCopy)
	e.mgr.soc.Flash().Store(name, data)
}

// LoadBlob retrieves a blob from untrusted flash through the commodity OS.
func (env *Env) LoadBlob(name string) ([]byte, bool) {
	e := env.enclave
	data, ok := e.mgr.soc.Flash().Load(name)
	if ok {
		e.core.Charge(uint64(len(data)) * hw.CyclesPerByteCopy)
		e.mgr.osCore.Charge(uint64(len(data)) * hw.CyclesPerByteCopy)
	}
	return data, ok
}
