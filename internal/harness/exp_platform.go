package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/omgcrypto"
)

func init() {
	register(Experiment{ID: "E4", Title: "World-switch and secure sensor overhead", Run: runE4})
	register(Experiment{ID: "E5", Title: "Protocol phase costs (Fig. 2 flow)", Run: runE5})
	register(Experiment{ID: "E6", Title: "Enclave life-cycle costs", Run: runE6})
}

func msF(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runE4(ctx *Ctx) (*Table, error) {
	f, err := ctx.fixture()
	if err != nil {
		return nil, err
	}
	s, err := f.newSession("e4", 1)
	if err != nil {
		return nil, err
	}
	encCore := s.App.Enclave().Core()

	// Raw SMC round trip: the world-switch bracket around no secure work.
	encCore.ResetCycles()
	const switches = 16
	for i := 0; i < switches; i++ {
		if err := s.Device.Monitor.Call(encCore, func() error { return nil }); err != nil {
			return nil, err
		}
	}
	perSwitch := encCore.Elapsed() / switches

	// Secure capture of one full utterance (SMC + FIFO + shared window).
	utt := f.Subset[0]
	s.Device.Speak(utt.Samples)
	encCore.ResetCycles()
	if _, err := s.App.CaptureOnly(); err != nil {
		return nil, err
	}
	captureTime := encCore.Elapsed()

	// Full query for context.
	s.Device.Speak(utt.Samples)
	encCore.ResetCycles()
	preSwitches := s.Device.Monitor.Switches()
	if _, err := s.Query(); err != nil {
		return nil, err
	}
	queryTime := encCore.Elapsed()
	switchesPerQuery := s.Device.Monitor.Switches() - preSwitches

	return &Table{
		ID:      "E4",
		Title:   "World switches and secure peripheral input",
		Claim:   "\"the switch from an SA to the secure world takes around 0.3 ms\"; sensor-read overhead \"negligible\"",
		Headers: []string{"Quantity", "Measured (simulated)"},
		Rows: [][]string{
			{"SMC round trip (SA → secure world → SA)", fmt.Sprintf("%.3f ms", msF(perSwitch))},
			{"secure capture of 1 s of audio", fmt.Sprintf("%.3f ms", msF(captureTime))},
			{"world switches per query", fmt.Sprintf("%d", switchesPerQuery)},
			{"full query (capture + frontend + inference)", fmt.Sprintf("%.3f ms", msF(queryTime))},
			{"capture share of query", fmt.Sprintf("%.1f %%", 100*float64(captureTime)/float64(queryTime))},
		},
	}, nil
}

func runE5(ctx *Ctx) (*Table, error) {
	f, err := ctx.fixture()
	if err != nil {
		return nil, err
	}
	dev, err := f.newDevice("e5")
	if err != nil {
		return nil, err
	}
	vendor, err := core.NewVendor(omgcrypto.NewDRBG("e5-vendor"), f.Root.Public(), f.VendorID, cloneModel(f.Pipeline.Model), 1)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(f.Root.Public(), vendor.Public())
	if err != nil {
		return nil, err
	}
	s := core.NewSession(dev, vendor, user, omgcrypto.NewDRBG("e5-session"))

	elapsed := func() time.Duration { return dev.SoC.TotalBusy() }
	t0 := elapsed()
	if err := s.Prepare(vendor.Public()); err != nil {
		return nil, err
	}
	prepTime := elapsed() - t0

	t1 := elapsed()
	if err := s.Initialize(); err != nil {
		return nil, err
	}
	initTime := elapsed() - t1

	utt := f.Subset[0]
	s.Device.Speak(utt.Samples)
	t2 := elapsed()
	if _, err := s.Query(); err != nil {
		return nil, err
	}
	queryTime := elapsed() - t2

	// Re-initialization after relaunch: steps 3–4 skipped, no vendor
	// provisioning, just key delivery.
	if err := s.App.Teardown(); err != nil {
		return nil, err
	}
	app, err := core.LaunchEnclave(dev, vendor.Public(), omgcrypto.NewDRBG("e5-relaunch"))
	if err != nil {
		return nil, err
	}
	s.App = app
	t3 := elapsed()
	if err := s.Initialize(); err != nil {
		return nil, err
	}
	reinitTime := elapsed() - t3

	return &Table{
		ID:      "E5",
		Title:   "OMG phase costs on the simulated device",
		Claim:   "steps 3–4 \"can be omitted until the vendor's model is updated\"; repeated queries avoid preparation/initialization costs",
		Headers: []string{"Phase", "Simulated time", "Includes"},
		Rows: [][]string{
			{"I. preparation", fmt.Sprintf("%.1f ms", msF(prepTime)), "enclave setup+boot, measurement, key derivation, 2 attestations, model provisioning, flash write"},
			{"II. initialization", fmt.Sprintf("%.1f ms", msF(initTime)), "attestation, KU unwrap (RSA), AES-GCM decrypt, model decode, arena planning"},
			{"III. one query", fmt.Sprintf("%.2f ms", msF(queryTime)), "secure capture, frontend, tiny_conv inference"},
			{"re-init after relaunch (steps 3–4 skipped)", fmt.Sprintf("%.1f ms", msF(reinitTime)), "same as II; ciphertext already local"},
		},
	}, nil
}

func runE6(ctx *Ctx) (*Table, error) {
	f, err := ctx.fixture()
	if err != nil {
		return nil, err
	}
	dev, err := f.newDevice("e6")
	if err != nil {
		return nil, err
	}
	vendor, err := core.NewVendor(omgcrypto.NewDRBG("e6-vendor"), f.Root.Public(), f.VendorID, cloneModel(f.Pipeline.Model), 1)
	if err != nil {
		return nil, err
	}
	elapsed := func() time.Duration { return dev.SoC.TotalBusy() }

	t0 := elapsed()
	app, err := core.LaunchEnclave(dev, vendor.Public(), omgcrypto.NewDRBG("e6-app"))
	if err != nil {
		return nil, err
	}
	launch := elapsed() - t0

	t1 := elapsed()
	if err := app.Suspend(); err != nil {
		return nil, err
	}
	suspend := elapsed() - t1

	t2 := elapsed()
	if err := app.Resume(); err != nil {
		return nil, err
	}
	resume := elapsed() - t2

	t3 := elapsed()
	if err := app.Teardown(); err != nil {
		return nil, err
	}
	teardown := elapsed() - t3

	return &Table{
		ID:      "E6",
		Title:   "SANCTUARY life-cycle transitions (§III-B steps 1–4)",
		Claim:   "qualitative: setup/boot dominated by core shutdown+boot and memory measurement; teardown scrubs and returns the core",
		Headers: []string{"Transition", "Simulated time", "Dominant costs"},
		Rows: [][]string{
			{"setup + boot", fmt.Sprintf("%.1f ms", msF(launch)), "core shutdown (2 ms), 1 MiB measurement, deterministic RSA keygen (120 ms model), SL core boot (25 ms)"},
			{"suspend", fmt.Sprintf("%.2f ms", msF(suspend)), "L1 invalidate, core handback (memory stays locked)"},
			{"resume", fmt.Sprintf("%.1f ms", msF(resume)), "core shutdown, TZASC rebind (SMC), core boot"},
			{"teardown", fmt.Sprintf("%.1f ms", msF(teardown)), "L1 invalidate, scrub 1 MiB + shared window, unlock, core handback"},
		},
	}, nil
}
