package tflm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// fuzzSmallModel is a four-tensor FC → Softmax graph whose encoding is a
// few hundred bytes, so the fuzzer mutates structure rather than weights.
func fuzzSmallModel(tb testing.TB) *Model {
	tb.Helper()
	b := NewBuilder("fuzz fc", 3)
	inQ := QuantParams{Scale: 0.5, ZeroPoint: -3}
	in := b.Tensor(&Tensor{Name: "in", Type: Int8, Shape: []int{1, 4}, Quant: &inQ})
	b.Input(in)
	wQ := SymmetricWeightParams(0.25)
	w := &Tensor{Name: "w", Type: Int8, Shape: []int{3, 4}, Quant: &wQ}
	w.Alloc()
	for i := range w.I8 {
		w.I8[i] = int8(7*i - 40)
	}
	bias := &Tensor{Name: "b", Type: Int32, Shape: []int{3}, Quant: &QuantParams{Scale: inQ.Scale * wQ.Scale}}
	bias.Alloc()
	bias.I32[1] = -17
	wi, bi := b.Const(w), b.Const(bias)
	logits := b.Tensor(&Tensor{Name: "logits", Type: Int8, Shape: []int{1, 3}, Quant: &QuantParams{Scale: 0.25}})
	b.Node(OpFullyConnected, FullyConnectedParams{}, []int{in, wi, bi}, []int{logits})
	probQ := SoftmaxOutputParams()
	probs := b.Tensor(&Tensor{Name: "probs", Type: Int8, Shape: []int{1, 3}, Quant: &probQ})
	b.Node(OpSoftmax, SoftmaxParams{Beta: 1}, []int{logits}, []int{probs})
	b.Output(probs)
	m, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// encodeBoundaries returns the byte offsets in Encode(m) at which each
// tensor record and each node record starts.
func encodeBoundaries(tb testing.TB, m *Model) (tensors, nodes []int) {
	tb.Helper()
	var buf bytes.Buffer
	off := len(formatMagic) + 2 + 8 + 4 + len(m.Description) + 4
	for _, t := range m.Tensors {
		tensors = append(tensors, off)
		buf.Reset()
		encodeTensor(&buf, t)
		off += buf.Len()
	}
	off += 4 // node count
	for _, n := range m.Nodes {
		nodes = append(nodes, off)
		buf.Reset()
		if err := encodeNode(&buf, n); err != nil {
			tb.Fatal(err)
		}
		off += buf.Len()
	}
	return tensors, nodes
}

// modelDecodeSeeds is the hand-built corpus of FuzzModelDecode, by name.
// The same inputs are checked in under testdata/fuzz/FuzzModelDecode.
func modelDecodeSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	enc := func(m *Model) []byte {
		blob, err := Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		return blob
	}
	small := fuzzSmallModel(tb)
	blob := enc(small)
	seeds := map[string][]byte{
		"tiny_conv":   enc(testTinyConvModel(tb, 1)),
		"small_fc":    blob,
		"empty":       {},
		"magic_only":  []byte(formatMagic),
		"bad_magic":   append([]byte("OMGX"), blob[4:]...),
		"bad_version": append(append([]byte(formatMagic), 2, 0), blob[6:]...),
	}
	tensors, nodes := encodeBoundaries(tb, small)
	for i, off := range tensors {
		seeds[fmt.Sprintf("cut_tensor%d", i)] = blob[:off]
		seeds[fmt.Sprintf("cut_mid_tensor%d", i)] = blob[:off+3]
	}
	for i, off := range nodes {
		seeds[fmt.Sprintf("cut_node%d", i)] = blob[:off]
	}
	seeds["cut_io_lists"] = blob[:len(blob)-8]

	// Rank 9: the first tensor claims nine dimensions.
	rank := append([]byte(nil), blob...)
	rankOff := tensors[0] + 4 + len(small.Tensors[0].Name) + 2
	binary.LittleEndian.PutUint32(rank[rankOff:], 9)
	seeds["rank9"] = rank

	// The constant weight tensor "w" declares 11 data bytes; its shape
	// needs 12.
	lenOff := tensors[1] + 4 + len(small.Tensors[1].Name) + 2 + 4 + 2*4 + 12
	if got := binary.LittleEndian.Uint32(blob[lenOff:]); got != 12 {
		tb.Fatalf("data length field of %q reads %d, want 12", small.Tensors[1].Name, got)
	}
	lying := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(lying[lenOff:], 11)
	seeds["const_len_mismatch"] = lying

	// Large dimensions: the activation tensor "logits" claims a rank-3
	// shape whose element count overflows int.
	big := fuzzSmallModel(tb)
	big.Tensors[3].Shape = []int{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF}
	var buf bytes.Buffer
	for _, t := range big.Tensors {
		encodeTensor(&buf, t)
	}
	huge := append([]byte(nil), blob[:tensors[0]]...)
	huge = append(huge, buf.Bytes()...)
	huge = append(huge, blob[nodes[0]-4:]...)
	seeds["huge_dims"] = huge
	return seeds
}

// FuzzModelDecode feeds arbitrary bytes to Decode, the parser every
// Registry.Swap runs on a decrypted vendor blob. Properties: Decode never
// panics, and any model it accepts re-encodes to bytes that decode to an
// equal model (equal canonical encodings — bitwise, so NaN weights and
// scales compare by their bits). The checked-in corpus
// (testdata/fuzz/FuzzModelDecode) holds an encoded tiny_conv and a small FC
// model, truncations at tensor and node boundaries, bad magic and version,
// a rank-9 tensor, a constant tensor whose data length disagrees with its
// shape, and dimensions whose element count overflows.
func FuzzModelDecode(f *testing.F) {
	for _, seed := range modelDecodeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		for _, tn := range m.Tensors {
			if n := tn.NumElements(); n > maxTensorElements {
				t.Fatalf("accepted tensor %q with %d elements", tn.Name, n)
			}
		}
		blob, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted model does not re-encode: %v", err)
		}
		m2, err := Decode(blob)
		if err != nil {
			t.Fatalf("re-encoded model does not decode: %v", err)
		}
		blob2, err := Encode(m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, blob2) {
			t.Fatal("decode(encode(m)) differs from m")
		}
	})
}

// TestDecodeRejectsHugeDims pins the overflowing-shape case: a tensor whose
// element count overflows int must be rejected, not accepted with a
// wrapped positive size that would make NewInterpreter plan a
// multi-gigabyte arena.
func TestDecodeRejectsHugeDims(t *testing.T) {
	seeds := modelDecodeSeeds(t)
	if _, err := Decode(seeds["huge_dims"]); err == nil {
		t.Fatal("decoded a tensor with 2^96 elements")
	}
	for _, name := range []string{"tiny_conv", "small_fc"} {
		if _, err := Decode(seeds[name]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
