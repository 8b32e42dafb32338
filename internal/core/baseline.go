package core

import (
	"errors"

	"repro/internal/dsp"
	"repro/internal/hw"
	"repro/internal/tflm"
)

// PlainRunner is the Table I baseline: the same frontend and interpreter
// running as an ordinary normal-world process with no enclave, no TZASC
// region, no secure peripheral path — and no protection. It charges the
// identical compute costs to its core, so the difference to KWSApp.Query is
// exactly the OMG overhead.
type PlainRunner struct {
	soc    *hw.SoC
	core   *hw.Core
	fe     *dsp.Frontend
	interp *tflm.Interpreter
	// Query's scratch, reused across calls: a one-second capture, the
	// fingerprint, the probabilities and the result itself.
	capBuf []int16
	fp     []uint8
	probs  []float64
	res    QueryResult
}

// NewPlainRunner builds the unprotected runner on the given core. The model
// arrives in plaintext, as it would in a conventional deployment.
func NewPlainRunner(soc *hw.SoC, coreID int, model *tflm.Model) (*PlainRunner, error) {
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return nil, err
	}
	interp, err := tflm.NewInterpreter(model)
	if err != nil {
		return nil, err
	}
	core := soc.Core(coreID)
	interp.SetMeter(core)
	return &PlainRunner{soc: soc, core: core, fe: fe, interp: interp,
		capBuf: make([]int16, fe.Config().SampleRate)}, nil
}

// Core returns the core the runner executes on.
func (r *PlainRunner) Core() *hw.Core { return r.core }

// Query reads the microphone directly from the normal world (possible only
// because this configuration never assigned it to the secure world) and
// runs one inference. Like KWSApp.Query it runs in runner-owned scratch, so
// the returned result — pointer, Label and Probs alike — is only valid
// until the next Query on this runner.
func (r *PlainRunner) Query() (*QueryResult, error) {
	got, err := r.soc.ReadMicInto(r.core, r.capBuf)
	if err != nil {
		return nil, err
	}
	if got == 0 {
		return nil, errors.New("core: microphone empty")
	}
	r.fp = r.fe.ExtractInto(r.fp, r.capBuf[:got])
	r.core.Charge(r.fe.Cycles())
	if r.probs, err = infer(r.interp, r.fp, r.probs); err != nil {
		return nil, err
	}
	r.res = QueryResult{Label: tflm.Argmax(r.interp.Output(0)), Probs: r.probs}
	return &r.res, nil
}
