package harness

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/hw"
	"repro/internal/omgcrypto"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
	"repro/internal/train"
)

// Fixture lazily builds the expensive shared artifacts: long-term
// identities, the trained+quantized model, and the featurized evaluation
// subset. One fixture serves all experiments of a Ctx.
type Fixture struct {
	once sync.Once
	err  error

	Root     *omgcrypto.Identity
	VendorID *omgcrypto.Identity
	Pipeline *train.PipelineResult
	// Subset is the paper's 100-utterance evaluation set (10 per keyword,
	// rejection classes excluded), raw audio plus features.
	Subset       []speechcmd.Example
	SubsetFeats  []train.Sample
	FrontendConf dsp.FrontendConfig
}

func (c *Ctx) fixture() (*Fixture, error) {
	f := c.fix
	f.once.Do(func() {
		c.Logf("fixture: generating identities")
		rng := omgcrypto.NewDRBG("harness-fixture")
		if f.Root, f.err = omgcrypto.NewIdentity(rng, "device-vendor"); f.err != nil {
			return
		}
		if f.VendorID, f.err = omgcrypto.NewIdentity(rng, "acme-models"); f.err != nil {
			return
		}
		cfg := train.DefaultPipeline()
		if c.Quick {
			// Smaller corpus and budget, but still enough to land a usable
			// operating point (the full config is the non-quick run).
			cfg.Spec = speechcmd.DatasetSpec{Speakers: 32, TakesPerLabel: 2}
			cfg.Train.Epochs = 8
		}
		c.Logf("fixture: training tiny_conv (%d speakers, %d epochs)", cfg.Spec.Speakers, cfg.Train.Epochs)
		if f.Pipeline, f.err = train.RunPipeline(cfg); f.err != nil {
			return
		}
		c.Logf("fixture: float test acc %.2f, quantized %.2f", f.Pipeline.FloatTestAcc, f.Pipeline.QuantTestAcc)
		f.FrontendConf = cfg.Frontend
		gen := speechcmd.NewGenerator(cfg.Corpus)
		f.Subset = gen.PaperTestSubset()
		fe, err := dsp.NewFrontend(cfg.Frontend)
		if err != nil {
			f.err = err
			return
		}
		f.SubsetFeats = train.Featurize(f.Subset, fe)
	})
	return f, f.err
}

// newDevice builds a fresh simulated device sharing the fixture root.
func (f *Fixture) newDevice(seed string) (*core.Device, error) {
	return core.NewDevice(core.DeviceConfig{
		Root:           f.Root,
		Rand:           omgcrypto.NewDRBG("harness-device-" + seed),
		EnclaveKeyBits: 1024,
		SoC:            hw.Config{BigCores: 2, LittleCores: 2, DRAMSize: 256 << 20},
	})
}

// newSession stands up a complete OMG deployment (device, vendor with the
// trained model, user) and runs the preparation and initialization phases.
func (f *Fixture) newSession(seed string, version uint64) (*core.Session, error) {
	dev, err := f.newDevice(seed)
	if err != nil {
		return nil, err
	}
	model := cloneModel(f.Pipeline.Model)
	vendor, err := core.NewVendor(omgcrypto.NewDRBG("harness-vendor-"+seed), f.Root.Public(), f.VendorID, model, version)
	if err != nil {
		return nil, err
	}
	user, err := core.NewUser(f.Root.Public(), vendor.Public())
	if err != nil {
		return nil, err
	}
	s := core.NewSession(dev, vendor, user, omgcrypto.NewDRBG("harness-session-"+seed))
	if err := s.Prepare(vendor.Public()); err != nil {
		return nil, fmt.Errorf("harness: prepare: %w", err)
	}
	if err := s.Initialize(); err != nil {
		return nil, fmt.Errorf("harness: initialize: %w", err)
	}
	return s, nil
}

// cloneModel gives an experiment its own activation tensors over shared
// immutable weights, so concurrent interpreters can't interfere.
func cloneModel(m *tflm.Model) *tflm.Model {
	return m.Clone()
}
