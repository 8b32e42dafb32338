package core

import (
	"io"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/sanctuary"
	"repro/internal/trustzone"
)

// Device assembles U's phone: the simulated SoC, the TrustZone firmware
// with the platform keys the device vendor provisioned at the factory, and
// the SANCTUARY driver in the commodity OS.
type Device struct {
	// SoC is the cycle-approximate ARM hardware model.
	SoC *hw.SoC
	// Monitor is the EL3 secure monitor mediating world switches.
	Monitor *trustzone.Monitor
	// SecureOS runs in the secure world (mic capture, key services).
	SecureOS *trustzone.SecureOS
	// Sanctuary manages enclave lifecycle in the commodity OS.
	Sanctuary *sanctuary.Manager
	// Keys are the factory-provisioned platform keys certifying the device.
	Keys *trustzone.PlatformKeys
}

// DeviceConfig parameterizes device construction.
type DeviceConfig struct {
	// Root is the device vendor's root identity used to certify the
	// platform key (factory provisioning).
	Root *omgcrypto.Identity
	// Rand drives key generation; nil means crypto/rand.
	Rand io.Reader
	// EnclaveKeyBits reduces enclave RSA key sizes in simulations
	// (0 = 2048).
	EnclaveKeyBits int
	// SoC overrides the hardware config (zero = HiKey 960).
	SoC hw.Config
	// OSCore selects the commodity-OS core (default 0).
	OSCore int
}

// NewDevice boots a device: SoC, secure monitor, trusted OS (which claims
// the microphone for the secure world), and the SANCTUARY driver.
func NewDevice(cfg DeviceConfig) (*Device, error) {
	soc := hw.NewSoC(cfg.SoC)
	mon := trustzone.NewMonitor(soc)
	keys, err := trustzone.NewPlatformKeys(cfg.Rand, cfg.Root, "hikey960")
	if err != nil {
		return nil, err
	}
	sos, err := trustzone.BootSecureOS(soc, mon, trustzone.SecureOSConfig{
		Keys:           keys,
		Rand:           cfg.Rand,
		EnclaveKeyBits: cfg.EnclaveKeyBits,
	})
	if err != nil {
		return nil, err
	}
	mgr := sanctuary.NewManager(soc, sos, cfg.OSCore)
	return &Device{SoC: soc, Monitor: mon, SecureOS: sos, Sanctuary: mgr, Keys: keys}, nil
}

// Speak feeds PCM16 samples into the device microphone, modelling the user
// talking to the phone.
func (d *Device) Speak(samples []int16) {
	d.SoC.Microphone().Feed(samples)
}
