package tflm

import (
	"fmt"
	"math"
)

// Reference kernels: the original scalar implementations of Conv2D,
// DepthwiseConv2D, FullyConnected and Softmax, kept verbatim as the semantic ground
// truth for the optimized kernels in gemm.go. They are test oracles only:
// the interpreter never calls them. The equivalence tests in
// kernels_equiv_test.go build one-node models, run them through
// NewInterpreter + Invoke and compare the outputs with these kernels bit
// for bit, over randomized shapes, paddings, strides and activations. New ops must follow the same
// pattern: land a reference kernel first, then an optimized one that is
// tested against it.

func evalConv2DInt8Ref(in, w, bias, out *Tensor, p Conv2DParams) error {
	batches, inH, inW, inC := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	outC, kH, kW := w.Dim(0), w.Dim(1), w.Dim(2)
	outH, padT := convOutputSize(inH, kH, p.StrideH, p.Padding)
	outW, padL := convOutputSize(inW, kW, p.StrideW, p.Padding)
	if !out.ShapeEquals([]int{batches, outH, outW, outC}) {
		return fmt.Errorf("tflm: Conv2D output shape %v, want %v", out.Shape, []int{batches, outH, outW, outC})
	}
	mult, err := requantMultiplier(in, w, out)
	if err != nil {
		return err
	}
	inZP := in.Quant.ZeroPoint
	outZP := out.Quant.ZeroPoint
	lo, hi := activationRangeQuantized(p.Activation, *out.Quant)

	src, flt, dst := in.I8, w.I8, out.I8
	b32 := bias.I32
	oi := 0
	for b := 0; b < batches; b++ {
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*p.StrideH - padT
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*p.StrideW - padL
				for oc := 0; oc < outC; oc++ {
					acc := b32[oc]
					wBase := oc * kH * kW * inC
					for ky := 0; ky < kH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							sBase := ((b*inH+iy)*inW + ix) * inC
							wRow := wBase + (ky*kW+kx)*inC
							for ic := 0; ic < inC; ic++ {
								acc += (int32(src[sBase+ic]) - inZP) * int32(flt[wRow+ic])
							}
						}
					}
					v := clampInt32(mult.Apply(acc)+outZP, lo, hi)
					dst[oi] = int8(v)
					oi++
				}
			}
		}
	}
	return nil
}

func evalConv2DFloatRef(in, w, bias, out *Tensor, p Conv2DParams) error {
	batches, inH, inW, inC := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	outC, kH, kW := w.Dim(0), w.Dim(1), w.Dim(2)
	outH, padT := convOutputSize(inH, kH, p.StrideH, p.Padding)
	outW, padL := convOutputSize(inW, kW, p.StrideW, p.Padding)
	if !out.ShapeEquals([]int{batches, outH, outW, outC}) {
		return fmt.Errorf("tflm: Conv2D output shape %v, want %v", out.Shape, []int{batches, outH, outW, outC})
	}
	src, flt, dst, b32 := in.F32, w.F32, out.F32, bias.F32
	oi := 0
	for b := 0; b < batches; b++ {
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*p.StrideH - padT
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*p.StrideW - padL
				for oc := 0; oc < outC; oc++ {
					acc := b32[oc]
					wBase := oc * kH * kW * inC
					for ky := 0; ky < kH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kW; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							sBase := ((b*inH+iy)*inW + ix) * inC
							wRow := wBase + (ky*kW+kx)*inC
							for ic := 0; ic < inC; ic++ {
								acc += src[sBase+ic] * flt[wRow+ic]
							}
						}
					}
					dst[oi] = activationApplyFloat(p.Activation, acc)
					oi++
				}
			}
		}
	}
	return nil
}

func evalDepthwiseConv2DRef(in, w, bias, out *Tensor, p Conv2DParams) error {
	if p.StrideH <= 0 || p.StrideW <= 0 {
		return fmt.Errorf("tflm: DepthwiseConv2D stride %dx%d invalid", p.StrideH, p.StrideW)
	}
	mul := p.DepthMultiplier
	if mul <= 0 {
		mul = 1
	}
	batches, inH, inW, inC := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	kH, kW, outC := w.Dim(1), w.Dim(2), w.Dim(3)
	if outC != inC*mul {
		return fmt.Errorf("tflm: DepthwiseConv2D filter channels %d != %d*%d", outC, inC, mul)
	}
	outH, padT := convOutputSize(inH, kH, p.StrideH, p.Padding)
	outW, padL := convOutputSize(inW, kW, p.StrideW, p.Padding)
	if !out.ShapeEquals([]int{batches, outH, outW, outC}) {
		return fmt.Errorf("tflm: DepthwiseConv2D output shape %v, want %v", out.Shape, []int{batches, outH, outW, outC})
	}
	if in.Type != Int8 {
		return fmt.Errorf("tflm: DepthwiseConv2D unsupported input type %v", in.Type)
	}
	mult, err := requantMultiplier(in, w, out)
	if err != nil {
		return err
	}
	inZP, outZP := in.Quant.ZeroPoint, out.Quant.ZeroPoint
	lo, hi := activationRangeQuantized(p.Activation, *out.Quant)
	src, flt, dst, b32 := in.I8, w.I8, out.I8, bias.I32
	for b := 0; b < batches; b++ {
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*p.StrideH - padT
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*p.StrideW - padL
				for ic := 0; ic < inC; ic++ {
					for m := 0; m < mul; m++ {
						oc := ic*mul + m
						acc := b32[oc]
						for ky := 0; ky < kH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= inH {
								continue
							}
							for kx := 0; kx < kW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= inW {
									continue
								}
								sIdx := ((b*inH+iy)*inW+ix)*inC + ic
								wIdx := (ky*kW+kx)*outC + oc
								acc += (int32(src[sIdx]) - inZP) * int32(flt[wIdx])
							}
						}
						v := clampInt32(mult.Apply(acc)+outZP, lo, hi)
						dst[((b*outH+oy)*outW+ox)*outC+oc] = int8(v)
					}
				}
			}
		}
	}
	return nil
}

func evalFullyConnectedRef(in, w, bias, out *Tensor, p FullyConnectedParams) error {
	outN, inN := w.Dim(0), w.Dim(1)
	total := in.NumElements()
	if total%inN != 0 {
		return fmt.Errorf("tflm: FullyConnected input %d elements not divisible by %d", total, inN)
	}
	batches := total / inN
	if out.NumElements() != batches*outN {
		return fmt.Errorf("tflm: FullyConnected output %v, want %d×%d", out.Shape, batches, outN)
	}
	switch in.Type {
	case Int8:
		mult, err := requantMultiplier(in, w, out)
		if err != nil {
			return err
		}
		inZP, outZP := in.Quant.ZeroPoint, out.Quant.ZeroPoint
		lo, hi := activationRangeQuantized(p.Activation, *out.Quant)
		src, flt, dst, b32 := in.I8, w.I8, out.I8, bias.I32
		for b := 0; b < batches; b++ {
			sBase := b * inN
			for o := 0; o < outN; o++ {
				acc := b32[o]
				wBase := o * inN
				for i := 0; i < inN; i++ {
					acc += (int32(src[sBase+i]) - inZP) * int32(flt[wBase+i])
				}
				dst[b*outN+o] = int8(clampInt32(mult.Apply(acc)+outZP, lo, hi))
			}
		}
		return nil
	case Float32:
		src, flt, dst, b32 := in.F32, w.F32, out.F32, bias.F32
		for b := 0; b < batches; b++ {
			sBase := b * inN
			for o := 0; o < outN; o++ {
				acc := b32[o]
				wBase := o * inN
				for i := 0; i < inN; i++ {
					acc += src[sBase+i] * flt[wBase+i]
				}
				dst[b*outN+o] = activationApplyFloat(p.Activation, acc)
			}
		}
		return nil
	default:
		return fmt.Errorf("tflm: FullyConnected unsupported input type %v", in.Type)
	}
}

// evalSoftmaxRef is the original softmax: over the last dimension, in
// float64, dequantizing int8 input and requantizing int8 output.
func evalSoftmaxRef(in, out *Tensor, p SoftmaxParams) error {
	if in.NumElements() != out.NumElements() {
		return fmt.Errorf("tflm: Softmax shape mismatch %v vs %v", in.Shape, out.Shape)
	}
	beta := p.Beta
	if beta == 0 {
		beta = 1
	}
	depth := in.Shape[len(in.Shape)-1]
	outer := in.NumElements() / depth
	logits := make([]float64, depth)
	probs := make([]float64, depth)
	for b := 0; b < outer; b++ {
		switch in.Type {
		case Int8:
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
