package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

// protectedQueryCycles is what one protected query (secure capture of one
// second of audio through one SMC, frontend and tiny_conv Invoke) charges
// the enclave core.
const protectedQueryCycles = 9_085_504

// TestProtectedQueryNonInterference runs one protected query for each of
// four (model seed, utterance) pairs, each on a fresh device whose normal
// world has first filled the whole shared L2 with its own lines. Neither the
// model's weights nor the spoken word may show outside the enclave: every
// query charges the enclave core the same cycles, and the normal world finds
// the same L2 lines resident after every pair.
//
// This holds partly by construction: the meter charges the frontend and the
// interpreter by tensor shape, not by value, so the pin does not guard the
// kernels. What it guards is the data-dependent part, the SMC into the
// secure world and the microphone path through the shared window.
func TestProtectedQueryNonInterference(t *testing.T) {
	root, vid := identities(t)
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	var firstView []bool
	for i, p := range []struct {
		modelSeed int64
		word      string
	}{{101, "yes"}, {102, "no"}, {7, "stop"}, {4242, "left"}} {
		dev := newTestDevice(t, "noninterference")
		model, err := tflm.BuildRandomTinyConv(1, p.modelSeed)
		if err != nil {
			t.Fatal(err)
		}
		vendor, err := NewVendor(omgcrypto.NewDRBG("vendor-rng"), root.Public(), vid, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		user, err := NewUser(root.Public(), vendor.Public())
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(dev, vendor, user, omgcrypto.NewDRBG("session-noninterference"))
		if err := s.Prepare(vendor.Public()); err != nil {
			t.Fatal(err)
		}
		if err := s.Initialize(); err != nil {
			t.Fatal(err)
		}

		// Prime: the OS core reads one line per L2 slot from its own memory.
		l2 := dev.SoC.L2()
		osCore := dev.Sanctuary.OSCore()
		lines := l2.Sets() * l2.Ways()
		const primeBase = hw.PhysAddr(4 << 20)
		buf := make([]byte, lines*l2.LineSize())
		if err := dev.SoC.Read(osCore, primeBase, buf); err != nil {
			t.Fatal(err)
		}

		dev.Speak(gen.Utterance(p.word, 3, 0))
		enc := s.App.Enclave().Core()
		before := enc.Cycles()
		if _, err := s.Query(); err != nil {
			t.Fatal(err)
		}
		if got := enc.Cycles() - before; got != protectedQueryCycles {
			t.Errorf("pair %d (seed %d, %q): query charged %d cycles, want %d", i, p.modelSeed, p.word, got, protectedQueryCycles)
		}

		view := make([]bool, lines)
		for l := range view {
			view[l] = l2.Probe(primeBase + hw.PhysAddr(l*l2.LineSize()))
		}
		if firstView == nil {
			firstView = view
			continue
		}
		for l := range view {
			if view[l] != firstView[l] {
				t.Fatalf("pair %d (seed %d, %q): primed L2 line %d resident=%v, pair 0 saw %v", i, p.modelSeed, p.word, l, view[l], firstView[l])
			}
		}
	}
}
