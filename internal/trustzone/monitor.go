// Package trustzone implements the TrustZone firmware layer of the simulated
// platform (Fig. 1 of the paper): a secure monitor that brackets every SMC
// with the world switch, and a small trusted OS whose typed entry points
// are the secure-world services OMG relies on — the platform keystore, the
// secure peripheral driver and the SANCTUARY support service that programs
// the TZASC on behalf of enclaves.
package trustzone

import (
	"fmt"

	"repro/internal/hw"
)

// SecureContext is the execution context of secure-world code.
type SecureContext struct {
	Core *hw.Core
	SoC  *hw.SoC
}

// Monitor is the secure monitor (EL3 firmware): the only component that
// switches cores between worlds. Every call charges the measured SANCTUARY
// world-switch cost to the calling core.
type Monitor struct {
	soc *hw.SoC
	// switches counts completed SMC round trips, for experiments.
	switches uint64
}

// NewMonitor installs a monitor on the SoC.
func NewMonitor(soc *hw.SoC) *Monitor {
	return &Monitor{soc: soc}
}

// Switches returns the number of completed SMC round trips.
func (m *Monitor) Switches() uint64 { return m.switches }

// Call performs an SMC from core: it switches the core to the secure world,
// runs fn there and returns the core to its original world. The full round
// trip costs hw.WorldSwitchTime (≈0.3 ms, §VI), split evenly between entry
// and exit; register and shared-memory marshalling is abstracted away, its
// cost being dominated by the switch itself. fn is only called, never
// kept, so a caller's closure does not escape to the heap.
func (m *Monitor) Call(core *hw.Core, fn func(SecureContext) error) error {
	if !core.Online() {
		return fmt.Errorf("trustzone: SMC from offline core %d", core.ID())
	}
	prev := core.World()
	core.ChargeDuration(hw.WorldSwitchTime / 2)
	core.SetWorld(hw.SecureWorld)
	err := fn(SecureContext{Core: core, SoC: m.soc})
	core.SetWorld(prev)
	core.ChargeDuration(hw.WorldSwitchTime / 2)
	m.switches++
	return err
}
