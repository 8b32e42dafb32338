// Package sanctuary implements SANCTUARY-style user-space enclaves on the
// simulated TrustZone platform (§III-B of the OMG paper, after Brasser et
// al., NDSS 2019).
//
// A SANCTUARY App (SA) runs as a normal-world process on a temporarily
// dedicated CPU core whose memory is bound to that core by the TZASC,
// yielding strict two-way isolation: neither the commodity OS nor the secure
// world can touch SA memory, and the SA reaches OS services and secure-world
// services only through explicit shared buffers and SMC calls.
//
// The package implements the full life cycle from the paper:
//
//  1. Setup: memory is prepared by loading the SANCTUARY Library (SL) and
//     the SA, the TZASC is configured, and the least busy core is shut down.
//  2. Boot: the memory is attested and the core is booted with the SL.
//  3. Execution: the SA runs, optionally using commodity-OS services
//     (untrusted storage) and secure-world services (microphone).
//  4. Teardown: the core is shut down, L1 is invalidated, SA memory is
//     scrubbed and unlocked, and the core returns to the commodity OS.
//
// Between queries an enclave can Suspend (core handed back to the OS while
// its memory stays locked) and Resume on a possibly different core, the
// §V operation-phase optimization.
package sanctuary

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/trustzone"
)

// State is an enclave life-cycle state.
type State int

// Enclave life-cycle states, in forward order.
const (
	StateSetup State = iota
	StateRunning
	StateSuspended
	StateTornDown
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateSetup:
		return "setup"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateTornDown:
		return "torn-down"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Image is the binary loaded into an enclave: the SANCTUARY Library plus the
// SANCTUARY App. Its bytes are what the platform measures; OMG distributes
// this image in the open ("the enclave code can be open source", §V).
type Image struct {
	Name string
	Code []byte
}

// Config describes an enclave to set up.
type Config struct {
	Image Image
	// PrivateSize is the size of the two-way isolated region holding the SL,
	// SA and its heap. Default 4 MiB.
	PrivateSize uint64
	// SharedSWSize is the size of the window shared with the secure world
	// for peripheral data. Default 64 KiB.
	SharedSWSize uint64
	// AllowMic grants the SA access to the secure microphone.
	AllowMic bool
}

const (
	defaultPrivateSize  = 4 << 20
	defaultSharedSWSize = 64 << 10
	regionAlign         = 64 << 10
)

// Manager is the normal-world SANCTUARY driver: it allocates physical
// memory, loads images, and drives the secure world through enclave
// life-cycle transitions. It runs on the commodity OS core.
type Manager struct {
	soc      *hw.SoC
	sos      *trustzone.SecureOS
	osCore   *hw.Core
	nextBase hw.PhysAddr
	freed    []span // torn-down ranges, reused once nextBase reaches the end of DRAM
	enclaves map[string]*Enclave
}

// span is one physical range the allocator handed out.
type span struct {
	base hw.PhysAddr
	size uint64
}

// NewManager creates a SANCTUARY driver whose OS runs on core 0.
// Physical memory from heapBase upward is managed by the driver's allocator.
func NewManager(soc *hw.SoC, sos *trustzone.SecureOS) *Manager {
	return &Manager{
		soc:      soc,
		sos:      sos,
		osCore:   soc.Core(0),
		nextBase: 16 << 20, // leave the bottom 16 MiB to the "OS"
		enclaves: make(map[string]*Enclave),
	}
}

// OSCore returns the commodity-OS core.
func (m *Manager) OSCore() *hw.Core { return m.osCore }

// alloc hands out a regionAlign-aligned range of size bytes. It bumps
// nextBase while DRAM lasts, so every enclave lands where it would on a
// device that never tore one down; after that it takes the first torn-down
// range that fits.
func (m *Manager) alloc(size uint64) (hw.PhysAddr, error) {
	base := (uint64(m.nextBase) + regionAlign - 1) &^ uint64(regionAlign-1)
	if base+size <= m.soc.Mem().Size() {
		m.nextBase = hw.PhysAddr(base + size)
		return hw.PhysAddr(base), nil
	}
	for i, f := range m.freed {
		if f.size < size {
			continue
		}
		if used := (size + regionAlign - 1) &^ uint64(regionAlign-1); used < f.size {
			m.freed[i] = span{f.base + hw.PhysAddr(used), f.size - used}
		} else {
			m.freed = append(m.freed[:i], m.freed[i+1:]...)
		}
		return f.base, nil
	}
	return 0, fmt.Errorf("sanctuary: no free %d-byte range in DRAM", size)
}

// free returns ranges from alloc; the secure world has already scrubbed
// and unlocked them, or never locked them.
func (m *Manager) free(spans ...span) { m.freed = append(m.freed, spans...) }

// leastBusyCore returns the online core with the fewest accumulated cycles,
// excluding the OS core ("the least busy CPU core is shut down", §III-B).
func (m *Manager) leastBusyCore() (*hw.Core, error) {
	var best *hw.Core
	for _, c := range m.soc.Cores() {
		if c == m.osCore || !c.Online() {
			continue
		}
		if best == nil || c.Cycles() < best.Cycles() {
			best = c
		}
	}
	if best == nil {
		return nil, errors.New("sanctuary: no spare online core")
	}
	return best, nil
}

// ExpectedMeasurement computes the measurement a verifier should expect for
// an image loaded into a private region of the given size: the hash covers
// the image followed by the zero-initialized remainder of the region.
func ExpectedMeasurement(img Image, privateSize uint64) (omgcrypto.Measurement, error) {
	if uint64(len(img.Code)) > privateSize {
		return omgcrypto.Measurement{}, fmt.Errorf("sanctuary: image (%d bytes) exceeds region (%d bytes)", len(img.Code), privateSize)
	}
	h := sha256.New()
	h.Write(img.Code)
	zeros := make([]byte, 4096)
	for pad := privateSize - uint64(len(img.Code)); pad > 0; {
		n := uint64(len(zeros))
		if n > pad {
			n = pad
		}
		h.Write(zeros[:n])
		pad -= n
	}
	var mOut omgcrypto.Measurement
	copy(mOut[:], h.Sum(nil))
	return mOut, nil
}

// Setup performs life-cycle step 1: allocates and loads the enclave memory,
// shuts down the least busy core, and asks the secure world to lock and
// measure the region and mint the enclave identity.
func (m *Manager) Setup(cfg Config) (*Enclave, error) {
	if cfg.Image.Name == "" {
		return nil, errors.New("sanctuary: image needs a name")
	}
	if _, dup := m.enclaves[cfg.Image.Name]; dup {
		return nil, fmt.Errorf("sanctuary: enclave %q already exists", cfg.Image.Name)
	}
	if cfg.PrivateSize == 0 {
		cfg.PrivateSize = defaultPrivateSize
	}
	if cfg.SharedSWSize == 0 {
		cfg.SharedSWSize = defaultSharedSWSize
	}
	if uint64(len(cfg.Image.Code)) > cfg.PrivateSize {
		return nil, fmt.Errorf("sanctuary: image (%d bytes) exceeds private region (%d bytes)", len(cfg.Image.Code), cfg.PrivateSize)
	}
	privBase, err := m.alloc(cfg.PrivateSize)
	if err != nil {
		return nil, err
	}
	swBase, err := m.alloc(cfg.SharedSWSize)
	if err != nil {
		m.free(span{privBase, cfg.PrivateSize})
		return nil, err
	}
	regions := []span{{privBase, cfg.PrivateSize}, {swBase, cfg.SharedSWSize}}

	// The commodity OS copies the image into the (still unlocked) region.
	if err := m.soc.Write(m.osCore, privBase, cfg.Image.Code); err != nil {
		m.free(regions...)
		return nil, fmt.Errorf("sanctuary: loading image: %w", err)
	}
	m.osCore.Charge(uint64(len(cfg.Image.Code)) * hw.CyclesPerByteCopy)

	core, err := m.leastBusyCore()
	if err != nil {
		m.free(regions...)
		return nil, err
	}
	if err := core.PowerOff(m.osCore); err != nil {
		m.free(regions...)
		return nil, err
	}

	created, err := m.sos.Create(m.osCore, trustzone.CreateReq{
		Name:     cfg.Image.Name,
		Base:     privBase,
		PrivSize: cfg.PrivateSize,
		SWBase:   swBase,
		SWSize:   cfg.SharedSWSize,
		Core:     core.ID(),
		AllowMic: cfg.AllowMic,
	})
	if err != nil {
		// Not freed: the secure world may have locked part of the ranges
		// before it failed.
		_ = core.PowerOn()
		return nil, fmt.Errorf("sanctuary: secure-world create: %w", err)
	}

	e := &Enclave{
		mgr:         m,
		name:        cfg.Image.Name,
		cfg:         cfg,
		core:        core,
		privBase:    privBase,
		swBase:      swBase,
		measurement: created.Measurement,
		cert:        created.EnclaveCert,
		state:       StateSetup,
	}
	e.env.enclave = e
	m.enclaves[e.name] = e
	return e, nil
}

// Attest obtains a platform-signed attestation report for the named enclave
// with the verifier's nonce. The commodity OS relays this on behalf of
// remote verifiers; the report's authenticity does not depend on the relay
// being honest.
func (m *Manager) Attest(name string, nonce []byte) (*omgcrypto.AttestationReport, []*omgcrypto.Certificate, error) {
	return m.sos.Attest(m.osCore, name, nonce)
}
