package tflm

import (
	"fmt"
	"math"
)

// convOutputSize computes one spatial output dimension and the leading
// padding, with TensorFlow SAME/VALID semantics.
func convOutputSize(in, filter, stride int, pad Padding) (out, padBefore int) {
	switch pad {
	case PaddingSame:
		out = (in + stride - 1) / stride
		total := (out-1)*stride + filter - in
		if total < 0 {
			total = 0
		}
		padBefore = total / 2
	default: // PaddingValid
		out = (in-filter)/stride + 1
		padBefore = 0
	}
	return out, padBefore
}

// activationRangeQuantized returns the int8 clamp range implementing a fused
// activation under the output quantization.
func activationRangeQuantized(act Activation, q QuantParams) (lo, hi int32) {
	lo, hi = -128, 127
	switch act {
	case ActReLU:
		if q.ZeroPoint > lo {
			lo = q.ZeroPoint
		}
	case ActReLU6:
		if q.ZeroPoint > lo {
			lo = q.ZeroPoint
		}
		upper := q.ZeroPoint + int32(math.Round(6/q.Scale))
		if upper < hi {
			hi = upper
		}
	}
	return lo, hi
}

// activationApplyFloat applies a fused activation in the float domain.
func activationApplyFloat(act Activation, x float32) float32 {
	switch act {
	case ActReLU:
		if x < 0 {
			return 0
		}
	case ActReLU6:
		if x < 0 {
			return 0
		}
		if x > 6 {
			return 6
		}
	}
	return x
}

// requantMultiplier builds the accumulator→output multiplier
// inScale·wScale/outScale used by conv and FC.
func requantMultiplier(in, w, out *Tensor) (QuantizedMultiplier, error) {
	for _, t := range []*Tensor{in, w, out} {
		if t.Quant == nil {
			return QuantizedMultiplier{}, fmt.Errorf("tensor %q lacks quantization parameters", t.Name)
		}
	}
	return NewQuantizedMultiplier(in.Quant.Scale * w.Quant.Scale / out.Quant.Scale)
}
