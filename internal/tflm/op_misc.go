package tflm

import "math"

// reluI8 is the standalone int8 ReLU (same quantization in and out): values
// below the zero point clamp to it.
func reluI8(src, dst []int8, zp int32) {
	for i, v := range src {
		if int32(v) < zp {
			dst[i] = int8(zp)
		} else {
			dst[i] = v
		}
	}
}

// reluF32 is the standalone float32 ReLU.
func reluF32(src, dst []float32) {
	for i, v := range src {
		if v < 0 {
			dst[i] = 0
		} else {
			dst[i] = v
		}
	}
}

// softmax computes softmax over the last dimension of in into out. For
// quantized tensors the computation dequantizes to float, applies softmax,
// and requantizes to the output parameters; TFLM proper uses a fixed-point
// exp LUT, a substitution that changes results by <1 quantum. logits and
// probs are caller-owned staging of at least depth elements each, so
// Invoke stays allocation-free.
func softmax(in, out *Tensor, beta float64, logits, probs []float64) {
	depth := in.Shape[len(in.Shape)-1]
	logits = logits[:depth]
	probs = probs[:depth]
	for b := 0; b < in.NumElements()/depth; b++ {
		for i := range logits {
			if in.Type == Int8 {
				logits[i] = in.Quant.Dequantize(in.I8[b*depth+i])
			} else {
				logits[i] = float64(in.F32[b*depth+i])
			}
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
			if out.Type == Int8 {
				out.I8[b*depth+i] = out.Quant.Quantize(probs[i] / sum)
			} else {
				out.F32[b*depth+i] = float32(probs[i] / sum)
			}
		}
	}
}

// SoftmaxOutputParams is the standard TFLite int8 softmax output
// quantization: scale 1/256, zero point -128, covering [0, 1).
func SoftmaxOutputParams() QuantParams {
	return QuantParams{Scale: 1.0 / 256.0, ZeroPoint: -128}
}

// reshapeCopy copies in's data into out, a tensor of the same dtype and
// element count.
func reshapeCopy(in, out *Tensor) {
	copy(out.I8, in.I8)
	copy(out.U8, in.U8)
	copy(out.F32, in.F32)
	copy(out.I32, in.I32)
}

// pool implements MaxPool2D and AvgPool2D over NHWC tensors with
// identical input/output quantization; g is the node's windowGeom.
func pool(op OpCode, in, out *Tensor, g convGeom) {
	for b := 0; b < g.batches; b++ {
		for oy := 0; oy < g.outH; oy++ {
			iy0 := oy*g.strideH - g.padT
			for ox := 0; ox < g.outW; ox++ {
				ix0 := ox*g.strideW - g.padL
				for c := 0; c < g.inC; c++ {
					oi := ((b*g.outH+oy)*g.outW+ox)*g.inC + c
					if in.Type == Int8 {
						var acc int32
						maxV := int32(math.MinInt32)
						count := int32(0)
						for ky := max(-iy0, 0); ky < min(g.kH, g.inH-iy0); ky++ {
							for kx := max(-ix0, 0); kx < min(g.kW, g.inW-ix0); kx++ {
								v := int32(in.I8[((b*g.inH+iy0+ky)*g.inW+ix0+kx)*g.inC+c])
								acc += v
								if v > maxV {
									maxV = v
								}
								count++
							}
						}
						v := maxV
						if op == OpAvgPool2D {
							// Round-half-away-from-zero average, as TFLite;
							// a window that fits the input is never empty.
							if acc >= 0 {
								v = (acc + count/2) / count
							} else {
								v = (acc - count/2) / count
							}
						}
						out.I8[oi] = int8(clampInt32(v, -128, 127))
						continue
					}
					var acc float32
					maxV := float32(math.Inf(-1))
					count := 0
					for ky := max(-iy0, 0); ky < min(g.kH, g.inH-iy0); ky++ {
						for kx := max(-ix0, 0); kx < min(g.kW, g.inW-ix0); kx++ {
							v := in.F32[((b*g.inH+iy0+ky)*g.inW+ix0+kx)*g.inC+c]
							acc += v
							if v > maxV {
								maxV = v
							}
							count++
						}
					}
					v := maxV
					if op == OpAvgPool2D {
						v = acc / float32(count)
					}
					out.F32[oi] = v
				}
			}
		}
	}
}
