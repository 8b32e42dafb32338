// Package tflm is a from-scratch re-implementation of the inference engine
// the OMG paper runs inside its enclave: TensorFlow Lite for Microcontrollers
// (§VI). It provides int8 post-training-quantized reference kernels with
// TFLite's exact fixed-point requantization arithmetic, float32 kernels for
// parity testing, a greedy arena memory planner, an interpreter, a compact
// binary model format ("OMGM"), and a per-operator cycle-cost model used to
// charge simulated cores.
//
// The engine supports the paper's tiny_conv keyword-spotting network —
// Conv2D (8 filters, 8×10, stride 2×2, SAME) + ReLU + FullyConnected +
// Softmax over a 49×43 spectrogram fingerprint — as well as the additional
// operators (depthwise convolution, pooling) needed for the model-scaling
// experiment E10 and for porting "larger and recurrent architectures" the
// paper mentions as future work.
package tflm

import (
	"fmt"
	"math"
	"strings"
)

// DType enumerates tensor element types.
type DType uint8

// Supported element types.
const (
	Float32 DType = iota
	Int8
	UInt8
	Int32
)

// String names the dtype.
func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	case UInt8:
		return "uint8"
	case Int32:
		return "int32"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case Float32, Int32:
		return 4
	default:
		return 1
	}
}

// QuantParams holds per-tensor affine quantization parameters:
// real = Scale * (q - ZeroPoint).
type QuantParams struct {
	// Scale is the real-domain step per quantized unit.
	Scale float64
	// ZeroPoint is the quantized value representing real 0.
	ZeroPoint int32
}

// Quantize maps a real value to the quantized domain with round-to-nearest
// and saturation to the int8 range. Clamping happens in the float domain so
// arbitrarily large inputs saturate instead of wrapping.
func (q QuantParams) Quantize(x float64) int8 {
	v := roundAwayFromZero(x/q.Scale) + float64(q.ZeroPoint)
	if v < -128 {
		return -128
	}
	if v > 127 {
		return 127
	}
	return int8(v)
}

// Dequantize maps a quantized value back to the real domain.
func (q QuantParams) Dequantize(v int8) float64 {
	return q.Scale * float64(int32(v)-q.ZeroPoint)
}

func roundAwayFromZero(x float64) float64 {
	if x >= 0 {
		return math.Floor(x + 0.5)
	}
	return math.Ceil(x - 0.5)
}

// Tensor is an n-dimensional array with optional quantization parameters.
// 4-D tensors use NHWC layout; convolution filters use OHWI (output
// channels, height, width, input channels), matching TFLite.
type Tensor struct {
	// Name is the tensor's debug name.
	Name string
	// Type is the element dtype, matching the allocated storage slice.
	Type DType
	// Shape is the dimension list (NHWC for 4-D activations).
	Shape []int
	// Quant holds the affine quantization parameters; nil for float.
	Quant *QuantParams

	// F32, I8, U8, I32 are the element storage: exactly one is non-nil
	// once allocated, matching Type.
	F32 []float32 // Float32 storage
	I8  []int8    // Int8 storage
	U8  []uint8   // UInt8 storage
	I32 []int32   // Int32 storage

	// IsConst marks weight/bias tensors whose data is baked into the model.
	IsConst bool
	// ArenaOffset is the byte offset assigned by the memory planner for
	// non-constant tensors (-1 before planning).
	ArenaOffset int
}

// NumElements returns the product of the shape dimensions.
func (t *Tensor) NumElements() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// ByteSize returns the tensor's storage size.
func (t *Tensor) ByteSize() int { return t.NumElements() * t.Type.Size() }

// Alloc allocates backing storage for the tensor's type and shape.
func (t *Tensor) Alloc() {
	n := t.NumElements()
	switch t.Type {
	case Float32:
		if len(t.F32) != n {
			t.F32 = make([]float32, n)
		}
	case Int8:
		if len(t.I8) != n {
			t.I8 = make([]int8, n)
		}
	case UInt8:
		if len(t.U8) != n {
			t.U8 = make([]uint8, n)
		}
	case Int32:
		if len(t.I32) != n {
			t.I32 = make([]int32, n)
		}
	}
}

// Allocated reports whether backing storage matches the shape.
func (t *Tensor) Allocated() bool {
	n := t.NumElements()
	switch t.Type {
	case Float32:
		return len(t.F32) == n
	case Int8:
		return len(t.I8) == n
	case UInt8:
		return len(t.U8) == n
	case Int32:
		return len(t.I32) == n
	default:
		return false
	}
}

// Dim returns shape dimension i, or 1 when the axis does not exist.
// Model.Validate fixes the rank of every tensor a kernel indexes this way.
func (t *Tensor) Dim(i int) int {
	if i < len(t.Shape) {
		return t.Shape[i]
	}
	return 1
}

// ShapeEquals compares shapes element-wise.
func (t *Tensor) ShapeEquals(shape []int) bool {
	if len(t.Shape) != len(shape) {
		return false
	}
	for i := range shape {
		if t.Shape[i] != shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description ("conv_w int8[8 10 8 1] const").
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %v%v", t.Name, t.Type, t.Shape)
	if t.IsConst {
		sb.WriteString(" const")
	}
	if t.Quant != nil {
		fmt.Fprintf(&sb, " q(%.6g,%d)", t.Quant.Scale, t.Quant.ZeroPoint)
	}
	return sb.String()
}
