package hw

import "fmt"

// PeriphID identifies a peripheral on the simulated bus.
type PeriphID string

// Standard peripherals of the simulated board.
const (
	PeriphMicrophone PeriphID = "microphone"
	PeriphFlash      PeriphID = "flash"
)

// PeriphController models the TrustZone Protection Controller (TZPC): it
// records, per peripheral, which world may access it. OMG assigns the
// microphone to the secure world so voice samples can only be read through
// the trusted peripheral service (§III-B, §V step 7).
type PeriphController struct {
	assignment map[PeriphID]World
}

// NewPeriphController returns a controller with all peripherals defaulting
// to normal-world access.
func NewPeriphController() *PeriphController {
	return &PeriphController{assignment: make(map[PeriphID]World)}
}

// Assign dedicates a peripheral to a world. Only secure-world callers may
// reassign peripherals, mirroring the TZPC's secure-only programming model.
func (p *PeriphController) Assign(by World, id PeriphID, to World) error {
	if by != SecureWorld {
		return &BusFault{
			Access: Access{Core: -1, World: by, Write: true},
			Reason: "TZPC programming from non-secure world",
		}
	}
	p.assignment[id] = to
	return nil
}

// WorldOf returns the world a peripheral is assigned to.
func (p *PeriphController) WorldOf(id PeriphID) World {
	return p.assignment[id] // zero value = NormalWorld
}

// Check validates an access to the peripheral by the given world.
func (p *PeriphController) Check(a Access, id PeriphID) error {
	owner := p.WorldOf(id)
	if owner == SecureWorld && a.World != SecureWorld {
		return &BusFault{Access: a, Reason: fmt.Sprintf("peripheral %q assigned to secure world", id)}
	}
	return nil
}

// Microphone models the board's PDM microphone front end. A test or demo
// installs a PCM16 sample source; reads drain it through a FIFO, charging
// MMIO cost per transfer burst. The microphone holds whatever audio the
// "environment" produced; access control decides who may read it.
type Microphone struct {
	// fifo[head:] are the buffered samples; fifo[:head] were drained.
	fifo []int16
	head int
	// SampleRate is informational (the frontend assumes 16 kHz).
	SampleRate int
}

// NewMicrophone returns a microphone with an empty FIFO.
func NewMicrophone() *Microphone {
	return &Microphone{SampleRate: 16000}
}

// Feed appends samples to the FIFO, as if the user spoke into the device.
// It reuses the FIFO's backing array: the drained prefix is reclaimed before
// the array would have to grow, so a feed that fits the array beside the
// undrained samples does not allocate.
func (m *Microphone) Feed(samples []int16) {
	if m.head > 0 && len(m.fifo)+len(samples) > cap(m.fifo) {
		m.fifo = m.fifo[:copy(m.fifo, m.fifo[m.head:])]
		m.head = 0
	}
	m.fifo = append(m.fifo, samples...)
}

// Pending returns the number of buffered samples.
func (m *Microphone) Pending() int { return len(m.fifo) - m.head }

// DrainInto removes up to len(dst) samples from the FIFO into dst and
// returns how many were transferred — the allocation-free drain the secure
// peripheral driver uses on its hot path.
func (m *Microphone) DrainInto(dst []int16) int {
	n := copy(dst, m.fifo[m.head:])
	m.head += n
	return n
}

// Flash models untrusted on-board flash storage as a blob store. OMG keeps
// the *encrypted* model here (§V step 4): the store is reachable from the
// normal world, so nothing confidential may be stored in plaintext.
type Flash struct {
	blobs map[string][]byte
}

// NewFlash returns an empty flash store.
func NewFlash() *Flash {
	return &Flash{blobs: make(map[string][]byte)}
}

// Store writes a named blob (replacing any previous content).
func (f *Flash) Store(name string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	f.blobs[name] = cp
}

// Load returns a copy of a named blob.
func (f *Flash) Load(name string) ([]byte, bool) {
	data, ok := f.blobs[name]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, true
}

// Delete removes a named blob.
func (f *Flash) Delete(name string) { delete(f.blobs, name) }

// Names returns the stored blob names (order unspecified).
func (f *Flash) Names() []string {
	names := make([]string, 0, len(f.blobs))
	for n := range f.blobs {
		names = append(names, n)
	}
	return names
}

// Corrupt flips one bit of a stored blob, for tamper-detection tests.
func (f *Flash) Corrupt(name string, byteIndex int) bool {
	data, ok := f.blobs[name]
	if !ok || byteIndex >= len(data) {
		return false
	}
	data[byteIndex] ^= 0x01
	return true
}
