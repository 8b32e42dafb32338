package tflm

import (
	"fmt"
	"math"
)

// evalRelu is the standalone ReLU operator (same quantization in and out).
func evalRelu(in, out *Tensor) error {
	if in.NumElements() != out.NumElements() {
		return fmt.Errorf("tflm: Relu shape mismatch %v vs %v", in.Shape, out.Shape)
	}
	switch in.Type {
	case Int8:
		if err := wantQuant(in); err != nil {
			return err
		}
		zp := in.Quant.ZeroPoint
		for i, v := range in.I8 {
			if int32(v) < zp {
				out.I8[i] = int8(zp)
			} else {
				out.I8[i] = v
			}
		}
		return nil
	case Float32:
		for i, v := range in.F32 {
			if v < 0 {
				out.F32[i] = 0
			} else {
				out.F32[i] = v
			}
		}
		return nil
	default:
		return fmt.Errorf("tflm: Relu unsupported type %v", in.Type)
	}
}

// evalSoftmax computes softmax over the last dimension. For quantized
// tensors the computation dequantizes to float, applies softmax, and
// requantizes to the output parameters; TFLM proper uses a fixed-point exp
// LUT, a substitution that changes results by <1 quantum.
func evalSoftmax(in, out *Tensor, p SoftmaxParams) error {
	depth := in.Shape[len(in.Shape)-1]
	return evalSoftmaxScratch(in, out, p, make([]float64, depth), make([]float64, depth))
}

// evalSoftmaxScratch is evalSoftmax with caller-owned staging buffers (at
// least depth elements each); the interpreter passes its plan-time scratch
// so Invoke stays allocation-free.
func evalSoftmaxScratch(in, out *Tensor, p SoftmaxParams, logits, probs []float64) error {
	if in.NumElements() != out.NumElements() {
		return fmt.Errorf("tflm: Softmax shape mismatch %v vs %v", in.Shape, out.Shape)
	}
	beta := p.Beta
	if beta == 0 {
		beta = 1
	}
	depth := in.Shape[len(in.Shape)-1]
	outer := in.NumElements() / depth
	logits = logits[:depth]
	probs = probs[:depth]
	for b := 0; b < outer; b++ {
		switch in.Type {
		case Int8:
			if err := wantQuant(in); err != nil {
				return err
			}
			for i := 0; i < depth; i++ {
				logits[i] = in.Quant.Dequantize(in.I8[b*depth+i])
			}
		case Float32:
			for i := 0; i < depth; i++ {
				logits[i] = float64(in.F32[b*depth+i])
			}
		default:
			return fmt.Errorf("tflm: Softmax unsupported type %v", in.Type)
		}
		maxV := logits[0]
		for _, v := range logits[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range logits {
			probs[i] = math.Exp(beta * (v - maxV))
			sum += probs[i]
		}
		for i := range probs {
			probs[i] /= sum
		}
		switch out.Type {
		case Int8:
			if err := wantQuant(out); err != nil {
				return err
			}
			for i := 0; i < depth; i++ {
				out.I8[b*depth+i] = out.Quant.Quantize(probs[i])
			}
		case Float32:
			for i := 0; i < depth; i++ {
				out.F32[b*depth+i] = float32(probs[i])
			}
		default:
			return fmt.Errorf("tflm: Softmax unsupported output type %v", out.Type)
		}
	}
	return nil
}

// softmaxRowsI8 computes softmax over rows of depth int8 logits — the raw
// kernel behind the int8→int8 case of evalSoftmaxScratch and the batched
// InvokeBatch plan, which stacks many utterances' rows into one call. The
// staging buffers must hold depth float64 each.
func softmaxRowsI8(in, out []int8, rows, depth int, beta float64, inQ, outQ *QuantParams, logits, probs []float64) {
	logits = logits[:depth]
	probs = probs[:depth]
	for b := 0; b < rows; b++ {
		row := in[b*depth : (b+1)*depth]
		for i, q := range row {
			logits[i] = inQ.Dequantize(q)
		}
		maxV := logits[0]
		for _, v := range logits[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range logits {
			probs[i] = math.Exp(beta * (v - maxV))
			sum += probs[i]
		}
		orow := out[b*depth : (b+1)*depth]
		for i, p := range probs {
			orow[i] = outQ.Quantize(p / sum)
		}
	}
}

// SoftmaxOutputParams is the standard TFLite int8 softmax output
// quantization: scale 1/256, zero point -128, covering [0, 1).
func SoftmaxOutputParams() QuantParams {
	return QuantParams{Scale: 1.0 / 256.0, ZeroPoint: -128}
}

// evalReshape copies data into the new shape (element count must match).
func evalReshape(in, out *Tensor) error {
	if in.NumElements() != out.NumElements() {
		return fmt.Errorf("tflm: Reshape element count %d != %d", in.NumElements(), out.NumElements())
	}
	if in.Type != out.Type {
		return fmt.Errorf("tflm: Reshape type %v != %v", in.Type, out.Type)
	}
	switch in.Type {
	case Int8:
		copy(out.I8, in.I8)
	case UInt8:
		copy(out.U8, in.U8)
	case Float32:
		copy(out.F32, in.F32)
	case Int32:
		copy(out.I32, in.I32)
	}
	return nil
}

// evalPool implements MaxPool2D and AvgPool2D over NHWC tensors with
// identical input/output quantization.
func evalPool(op OpCode, in, out *Tensor, p PoolParams) error {
	if p.StrideH <= 0 || p.StrideW <= 0 || p.FilterH <= 0 || p.FilterW <= 0 {
		return fmt.Errorf("tflm: pool geometry invalid: %+v", p)
	}
	batches, inH, inW, ch := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	outH, padT := convOutputSize(inH, p.FilterH, p.StrideH, p.Padding)
	outW, padL := convOutputSize(inW, p.FilterW, p.StrideW, p.Padding)
	if !out.ShapeEquals([]int{batches, outH, outW, ch}) {
		return fmt.Errorf("tflm: pool output shape %v, want %v", out.Shape, []int{batches, outH, outW, ch})
	}
	if in.Type != Int8 && in.Type != Float32 {
		return fmt.Errorf("tflm: pool unsupported type %v", in.Type)
	}
	for b := 0; b < batches; b++ {
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*p.StrideH - padT
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*p.StrideW - padL
				for c := 0; c < ch; c++ {
					switch in.Type {
					case Int8:
						var acc int32
						maxV := int32(math.MinInt32)
						count := int32(0)
						for ky := 0; ky < p.FilterH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= inH {
								continue
							}
							for kx := 0; kx < p.FilterW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= inW {
									continue
								}
								v := int32(in.I8[((b*inH+iy)*inW+ix)*ch+c])
								acc += v
								if v > maxV {
									maxV = v
								}
								count++
							}
						}
						var v int32
						if op == OpMaxPool2D {
							v = maxV
						} else if count > 0 {
							// Round-half-away-from-zero average, as TFLite.
							if acc >= 0 {
								v = (acc + count/2) / count
							} else {
								v = (acc - count/2) / count
							}
						}
						out.I8[((b*outH+oy)*outW+ox)*ch+c] = int8(clampInt32(v, -128, 127))
					case Float32:
						var acc float32
						maxV := float32(math.Inf(-1))
						count := 0
						for ky := 0; ky < p.FilterH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= inH {
								continue
							}
							for kx := 0; kx < p.FilterW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= inW {
									continue
								}
								v := in.F32[((b*inH+iy)*inW+ix)*ch+c]
								acc += v
								if v > maxV {
									maxV = v
								}
								count++
							}
						}
						var v float32
						if op == OpMaxPool2D {
							v = maxV
						} else if count > 0 {
							v = acc / float32(count)
						}
						out.F32[((b*outH+oy)*outW+ox)*ch+c] = v
					}
				}
			}
		}
	}
	return nil
}
