package hw

// PhysMem is the simulated DRAM. It is sparsely backed: pages are allocated
// on first touch, so a 3 GB address space costs only what the workload
// actually uses. PhysMem performs no access-control checks; those belong to
// the TZASC, consulted by the SoC front end.
type PhysMem struct {
	size  uint64
	pages map[uint64][]byte
}

const pageShift = 16 // 64 KiB simulator pages
const pageSize = 1 << pageShift

// NewPhysMem creates a DRAM of the given size.
func NewPhysMem(size uint64) *PhysMem {
	return &PhysMem{size: size, pages: make(map[uint64][]byte)}
}

// Size returns the DRAM size in bytes.
func (m *PhysMem) Size() uint64 { return m.size }

// InRange reports whether [addr, addr+n) lies inside DRAM.
func (m *PhysMem) InRange(addr PhysAddr, n int) bool {
	if n < 0 {
		return false
	}
	end := uint64(addr) + uint64(n)
	return end >= uint64(addr) && end <= m.size
}

func (m *PhysMem) page(idx uint64) []byte {
	p, ok := m.pages[idx]
	if !ok {
		p = make([]byte, pageSize)
		m.pages[idx] = p
	}
	return p
}

// Read copies len(buf) bytes starting at addr into buf.
func (m *PhysMem) Read(addr PhysAddr, buf []byte) {
	off := uint64(addr)
	for len(buf) > 0 {
		p := m.page(off >> pageShift)
		in := off & (pageSize - 1)
		n := copy(buf, p[in:])
		buf = buf[n:]
		off += uint64(n)
	}
}

// Write copies data into DRAM starting at addr.
func (m *PhysMem) Write(addr PhysAddr, data []byte) {
	off := uint64(addr)
	for len(data) > 0 {
		p := m.page(off >> pageShift)
		in := off & (pageSize - 1)
		n := copy(p[in:], data)
		data = data[n:]
		off += uint64(n)
	}
}

// Zero clears [addr, addr+n); SANCTUARY's teardown uses it to scrub enclave
// memory before unlocking it.
func (m *PhysMem) Zero(addr PhysAddr, n uint64) {
	off := uint64(addr)
	remaining := n
	for remaining > 0 {
		p := m.page(off >> pageShift)
		in := off & (pageSize - 1)
		span := uint64(pageSize) - in
		if span > remaining {
			span = remaining
		}
		clear(p[in : in+span])
		off += span
		remaining -= span
	}
}
