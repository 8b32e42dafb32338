package train

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/speechcmd"
)

// Sample is a featurized training example: the 49×43 uint8 fingerprint and
// its class label.
type Sample struct {
	Features []uint8
	Label    int
}

// Featurize runs the fixed-point frontend over raw utterances, producing
// the samples both training and quantization calibration consume.
func Featurize(examples []speechcmd.Example, fe *dsp.Frontend) []Sample {
	out := make([]Sample, len(examples))
	for i, ex := range examples {
		out[i] = Sample{Features: fe.Extract(ex.Samples), Label: ex.Label}
	}
	return out
}

// Normalize maps uint8 features to the float training domain [-1, 1):
// x = (f − 128)/128. The inverse mapping is exactly representable by int8
// quantization with scale 1/128 and zero point 0, so converted models see
// bit-identical inputs.
func Normalize(features []uint8) []float32 {
	out := make([]float32, len(features))
	for i, f := range features {
		out[i] = (float32(f) - 128) / 128
	}
	return out
}

// TrainConfig controls the SGD loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// LR is the initial learning rate; it decays linearly to LR/10 over the
	// epochs, a simplification of the recipe's two-stage schedule.
	LR       float64
	Momentum float64
	Seed     int64
	// Progress, when non-nil, receives one line per epoch.
	Progress func(epoch int, trainLoss float64, valAcc float64)
}

// DefaultTrainConfig mirrors the spirit of the TFLM example recipe at a
// budget that converges on the synthetic corpus.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 12, BatchSize: 16, LR: 0.02, Momentum: 0.9, Seed: 1}
}

// Fit trains the model on train samples, optionally reporting validation
// accuracy per epoch.
func Fit(m *TinyConv, trainSamples, valSamples []Sample, cfg TrainConfig) error {
	if err := m.Cfg.validate(); err != nil {
		return err
	}
	if len(trainSamples) == 0 {
		return fmt.Errorf("train: empty training set")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return fmt.Errorf("train: non-positive epochs/batch size")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	// Pre-normalize features once.
	xs := make([][]float32, len(trainSamples))
	for i, s := range trainSamples {
		if len(s.Features) != m.Cfg.InputH*m.Cfg.InputW {
			return fmt.Errorf("train: sample %d has %d features, want %d", i, len(s.Features), m.Cfg.InputH*m.Cfg.InputW)
		}
		xs[i] = Normalize(s.Features)
	}
	vel := newGrads(m.Cfg)
	order := make([]int, len(trainSamples))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR * (1 - 0.9*float64(epoch)/float64(cfg.Epochs))
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			g := newGrads(m.Cfg)
			for _, idx := range order[start:end] {
				s := trainSamples[idx]
				cache := m.Forward(xs[idx], true, r)
				probs := Softmax(cache.logits)
				epochLoss += lossOf(probs, s.Label)
				dLogits := make([]float32, len(probs))
				copy(dLogits, probs)
				dLogits[s.Label] -= 1
				m.backward(cache, dLogits, g)
			}
			applySGD(m, g, vel, lr/float64(end-start), cfg.Momentum)
		}
		if cfg.Progress != nil {
			valAcc := -1.0
			if len(valSamples) > 0 {
				valAcc = EvaluateFloat(m, valSamples)
			}
			cfg.Progress(epoch, epochLoss/float64(len(order)), valAcc)
		}
	}
	return nil
}

func lossOf(probs []float32, label int) float64 {
	p := float64(probs[label])
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

func applySGD(m *TinyConv, g, vel *grads, lr, momentum float64) {
	update := func(w, gw, vw []float32) {
		for i := range w {
			vw[i] = float32(momentum)*vw[i] - float32(lr)*gw[i]
			w[i] += vw[i]
		}
	}
	update(m.ConvW, g.convW, vel.convW)
	update(m.ConvB, g.convB, vel.convB)
	update(m.FCW, g.fcW, vel.fcW)
	update(m.FCB, g.fcB, vel.fcB)
}

// EvaluateFloat returns top-1 accuracy of the float model on samples.
func EvaluateFloat(m *TinyConv, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if m.Predict(Normalize(s.Features)) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}
