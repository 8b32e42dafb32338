// Package trustzone implements the TrustZone firmware layer of the simulated
// platform (Fig. 1 of the paper): a secure monitor that dispatches SMC calls
// from the normal world into secure-world services, and a small trusted OS
// hosting the trusted applications OMG relies on — the platform keystore and
// the secure peripheral driver — plus the SANCTUARY support service that
// programs the TZASC on behalf of enclaves.
package trustzone

import (
	"fmt"

	"repro/internal/hw"
)

// ServiceID names a secure-world service reachable via SMC.
type ServiceID string

// Handler processes one secure-world call. It runs with the calling core
// switched to the secure state; req and the response are arbitrary values
// (register/shared-memory marshalling is abstracted away, its cost being
// dominated by the world switch itself).
type Handler func(ctx SecureContext, req any) (any, error)

// SecureContext is the execution context of a secure-world handler.
type SecureContext struct {
	Core *hw.Core
	SoC  *hw.SoC
}

// Monitor is the secure monitor (EL3 firmware): the only component that
// switches cores between worlds. Every call charges the measured SANCTUARY
// world-switch cost to the calling core.
type Monitor struct {
	soc      *hw.SoC
	services map[ServiceID]Handler
	// switches counts completed SMC round trips, for experiments.
	switches uint64
}

// NewMonitor installs a monitor on the SoC.
func NewMonitor(soc *hw.SoC) *Monitor {
	return &Monitor{soc: soc, services: make(map[ServiceID]Handler)}
}

// Register installs a secure-world service. Registration models flashing the
// trusted OS image; it is not reachable from simulated normal-world code.
func (m *Monitor) Register(id ServiceID, h Handler) {
	m.services[id] = h
}

// Switches returns the number of completed SMC round trips.
func (m *Monitor) Switches() uint64 { return m.switches }

// Call performs an SMC from core into the named service and returns to the
// caller's original world. The full round trip costs hw.WorldSwitchTime
// (≈0.3 ms, §VI), split evenly between entry and exit.
func (m *Monitor) Call(core *hw.Core, id ServiceID, req any) (any, error) {
	if !core.Online() {
		return nil, fmt.Errorf("trustzone: SMC from offline core %d", core.ID())
	}
	h, ok := m.services[id]
	if !ok {
		return nil, fmt.Errorf("trustzone: unknown service %q", id)
	}
	prev := core.World()
	core.ChargeDuration(hw.WorldSwitchTime / 2)
	core.SetWorld(hw.SecureWorld)
	resp, err := h(SecureContext{Core: core, SoC: m.soc}, req)
	core.SetWorld(prev)
	core.ChargeDuration(hw.WorldSwitchTime / 2)
	m.switches++
	return resp, err
}
