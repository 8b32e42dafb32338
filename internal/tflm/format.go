package tflm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// OMGM is the binary model format this engine serializes to — the blob the
// vendor encrypts and provisions in §V step 3, and whose size experiment E3
// compares to the paper's "about 49 kB".
//
// Layout (all integers little-endian):
//
//	magic "OMGM" | u16 format version | u64 model version
//	str description
//	u32 tensor count | tensors
//	u32 node count   | nodes
//	u32 input count  | u32 indices...
//	u32 output count | u32 indices...
//
// where str is u32 length + bytes, and each tensor/node is self-describing.
const (
	formatMagic   = "OMGM"
	formatVersion = 1
)

// maxTensorElements bounds the element count Decode accepts per tensor. A
// keyword-spotting model's largest tensor is tens of thousands of elements;
// the bound keeps a hostile shape from wrapping its int element count or
// making NewInterpreter plan a multi-gigabyte arena.
const maxTensorElements = 1 << 24

// Encode serializes the model.
func Encode(m *Model) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("tflm: encode: %w", err)
	}
	return encodeModel(m)
}

// encodeModel serializes m without validating it.
func encodeModel(m *Model) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(formatMagic)
	writeU16(&buf, formatVersion)
	writeU64(&buf, m.Version)
	writeStr(&buf, m.Description)

	writeU32(&buf, uint32(len(m.Tensors)))
	for _, t := range m.Tensors {
		encodeTensor(&buf, t)
	}
	writeU32(&buf, uint32(len(m.Nodes)))
	for _, n := range m.Nodes {
		if err := encodeNode(&buf, n); err != nil {
			return nil, err
		}
	}
	writeIndexList(&buf, m.Inputs)
	writeIndexList(&buf, m.Outputs)
	return buf.Bytes(), nil
}

// Decode parses a serialized model and validates it.
func Decode(data []byte) (*Model, error) {
	rd := &reader{data: data}
	if string(rd.bytes(4)) != formatMagic {
		return nil, errors.New("tflm: bad magic (not an OMGM model)")
	}
	if v := rd.u16(); v != formatVersion {
		return nil, fmt.Errorf("tflm: unsupported format version %d", v)
	}
	m := &Model{}
	m.Version = rd.u64()
	m.Description = rd.str()

	nTensors := int(rd.u32())
	if nTensors > 1<<20 {
		return nil, errors.New("tflm: tensor count implausible")
	}
	for i := 0; i < nTensors && rd.err == nil; i++ {
		t, err := decodeTensor(rd)
		if err != nil {
			return nil, err
		}
		m.Tensors = append(m.Tensors, t)
	}
	nNodes := int(rd.u32())
	if nNodes > 1<<20 {
		return nil, errors.New("tflm: node count implausible")
	}
	for i := 0; i < nNodes && rd.err == nil; i++ {
		n, err := decodeNode(rd)
		if err != nil {
			return nil, err
		}
		m.Nodes = append(m.Nodes, n)
	}
	m.Inputs = rd.indexList()
	m.Outputs = rd.indexList()
	if rd.err != nil {
		return nil, fmt.Errorf("tflm: decode: %w", rd.err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("tflm: decoded model invalid: %w", err)
	}
	return m, nil
}

func encodeTensor(buf *bytes.Buffer, t *Tensor) {
	writeStr(buf, t.Name)
	buf.WriteByte(byte(t.Type))
	flags := byte(0)
	if t.IsConst {
		flags |= 1
	}
	if t.Quant != nil {
		flags |= 2
	}
	buf.WriteByte(flags)
	writeU32(buf, uint32(len(t.Shape)))
	for _, d := range t.Shape {
		writeU32(buf, uint32(d))
	}
	if t.Quant != nil {
		writeU64(buf, math.Float64bits(t.Quant.Scale))
		writeU32(buf, uint32(t.Quant.ZeroPoint))
	}
	if t.IsConst {
		data := tensorBytes(t)
		writeU32(buf, uint32(len(data)))
		buf.Write(data)
	}
}

func decodeTensor(rd *reader) (*Tensor, error) {
	t := &Tensor{ArenaOffset: -1}
	t.Name = rd.str()
	t.Type = DType(rd.byte())
	flags := rd.byte()
	nDims := int(rd.u32())
	if nDims > 8 {
		return nil, errors.New("tflm: tensor rank implausible")
	}
	elems := 1
	for i := 0; i < nDims; i++ {
		d := int(rd.u32())
		// Both factors are at most maxTensorElements, so the product
		// cannot overflow before the comparison.
		if d > maxTensorElements || elems*d > maxTensorElements {
			return nil, fmt.Errorf("tflm: tensor %q exceeds %d elements", t.Name, maxTensorElements)
		}
		elems *= d
		t.Shape = append(t.Shape, d)
	}
	if flags&2 != 0 {
		t.Quant = &QuantParams{
			Scale:     math.Float64frombits(rd.u64()),
			ZeroPoint: int32(rd.u32()),
		}
	}
	if flags&1 != 0 {
		t.IsConst = true
		n := int(rd.u32())
		if rd.err == nil && n != t.NumElements()*t.Type.Size() {
			return nil, fmt.Errorf("tflm: tensor %q data length %d != %d", t.Name, n, t.NumElements()*t.Type.Size())
		}
		raw := rd.bytes(n)
		if rd.err != nil {
			return nil, rd.err
		}
		fillTensor(t, raw)
	}
	return t, rd.err
}

// tensorBytes flattens typed storage to little-endian bytes.
func tensorBytes(t *Tensor) []byte {
	switch t.Type {
	case Int8:
		out := make([]byte, len(t.I8))
		for i, v := range t.I8 {
			out[i] = byte(v)
		}
		return out
	case UInt8:
		return append([]byte(nil), t.U8...)
	case Int32:
		out := make([]byte, 4*len(t.I32))
		for i, v := range t.I32 {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
		}
		return out
	case Float32:
		out := make([]byte, 4*len(t.F32))
		for i, v := range t.F32 {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		return out
	default:
		return nil
	}
}

// fillTensor inflates little-endian bytes into typed storage.
func fillTensor(t *Tensor, raw []byte) {
	switch t.Type {
	case Int8:
		t.I8 = make([]int8, len(raw))
		for i, b := range raw {
			t.I8[i] = int8(b)
		}
	case UInt8:
		t.U8 = append([]uint8(nil), raw...)
	case Int32:
		t.I32 = make([]int32, len(raw)/4)
		for i := range t.I32 {
			t.I32[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	case Float32:
		t.F32 = make([]float32, len(raw)/4)
		for i := range t.F32 {
			t.F32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
}

func encodeNode(buf *bytes.Buffer, n Node) error {
	buf.WriteByte(byte(n.Op))
	writeIndexList(buf, n.Inputs)
	writeIndexList(buf, n.Outputs)
	params := n.Params
	if params == nil {
		// Decode reads every Softmax and Reshape record with its params;
		// nil means the defaults.
		switch n.Op {
		case OpSoftmax:
			params = SoftmaxParams{}
		case OpReshape:
			params = ReshapeParams{}
		}
	}
	switch p := params.(type) {
	case Conv2DParams:
		writeU32(buf, uint32(p.StrideH))
		writeU32(buf, uint32(p.StrideW))
		buf.WriteByte(byte(p.Padding))
		buf.WriteByte(byte(p.Activation))
		writeU32(buf, uint32(p.DepthMultiplier))
	case FullyConnectedParams:
		buf.WriteByte(byte(p.Activation))
	case SoftmaxParams:
		writeU64(buf, math.Float64bits(p.Beta))
	case PoolParams:
		writeU32(buf, uint32(p.FilterH))
		writeU32(buf, uint32(p.FilterW))
		writeU32(buf, uint32(p.StrideH))
		writeU32(buf, uint32(p.StrideW))
		buf.WriteByte(byte(p.Padding))
	case ReshapeParams:
		writeU32(buf, uint32(len(p.NewShape)))
		for _, d := range p.NewShape {
			writeU32(buf, uint32(int32(d)))
		}
	case nil:
		// Relu takes no parameters.
	default:
		return fmt.Errorf("tflm: encode: unknown params type %T", n.Params)
	}
	return nil
}

func decodeNode(rd *reader) (Node, error) {
	n := Node{Op: OpCode(rd.byte())}
	n.Inputs = rd.indexList()
	n.Outputs = rd.indexList()
	switch n.Op {
	case OpConv2D, OpDepthwiseConv2D:
		p := Conv2DParams{}
		p.StrideH = int(rd.u32())
		p.StrideW = int(rd.u32())
		p.Padding = Padding(rd.byte())
		p.Activation = Activation(rd.byte())
		p.DepthMultiplier = int(rd.u32())
		n.Params = p
	case OpFullyConnected:
		n.Params = FullyConnectedParams{Activation: Activation(rd.byte())}
	case OpSoftmax:
		n.Params = SoftmaxParams{Beta: math.Float64frombits(rd.u64())}
	case OpMaxPool2D, OpAvgPool2D:
		p := PoolParams{}
		p.FilterH = int(rd.u32())
		p.FilterW = int(rd.u32())
		p.StrideH = int(rd.u32())
		p.StrideW = int(rd.u32())
		p.Padding = Padding(rd.byte())
		n.Params = p
	case OpReshape:
		p := ReshapeParams{}
		nDims := int(rd.u32())
		if nDims > 8 {
			return n, errors.New("tflm: reshape rank implausible")
		}
		for i := 0; i < nDims; i++ {
			p.NewShape = append(p.NewShape, int(int32(rd.u32())))
		}
		n.Params = p
	case OpRelu:
		// no params
	default:
		return n, fmt.Errorf("tflm: decode: unknown op %d", n.Op)
	}
	return n, rd.err
}

// --- low-level helpers ---

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func writeStr(buf *bytes.Buffer, s string) {
	writeU32(buf, uint32(len(s)))
	buf.WriteString(s)
}

func writeIndexList(buf *bytes.Buffer, idx []int) {
	writeU32(buf, uint32(len(idx)))
	for _, i := range idx {
		writeU32(buf, uint32(i))
	}
}

// reader is a bounds-checked sequential decoder that records the first
// error and short-circuits subsequent reads, keeping call sites linear.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) byte() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := int(r.u32())
	if n > len(r.data) {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	return string(r.bytes(n))
}

func (r *reader) indexList() []int {
	n := int(r.u32())
	if n > len(r.data) {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int(r.u32()))
	}
	return out
}
