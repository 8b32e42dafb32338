package netfront

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// goldenSamples returns n samples that cycle through the int16 corners
// −32768, −1, 0, 1, 32767 and then a fixed linear-congruential pattern.
func goldenSamples(n int) []int16 {
	corners := []int16{-32768, -1, 0, 1, 32767}
	s := make([]int16, n)
	x := uint32(12345)
	for i := range s {
		if i < len(corners) {
			s[i] = corners[i]
			continue
		}
		x = x*1103515245 + 12345
		s[i] = int16(x >> 16)
	}
	return s
}

// TestAppendSamplesGolden pins the PCM16 encoding byte for byte: little
// endian two's complement, appended after whatever dst already holds.
// The short cases are spelled out; the 16000-sample utterance is pinned by
// its SHA-256.
func TestAppendSamplesGolden(t *testing.T) {
	cases := []struct {
		name   string
		prefix []byte
		in     []int16
		want   string // hex of the appended bytes
	}{
		{"empty", nil, nil, ""},
		{"one", nil, []int16{-32768}, "0080"},
		{"corners", nil, []int16{-32768, -1, 0, 1, 32767}, "0080ffff00000100ff7f"},
		{"odd_after_prefix", []byte{0xaa, 0xbb, 0xcc}, []int16{32767, 1, -1, 0, -32768, 258, -258}, "ff7f0100ffff000000800201fefe"},
	}
	for _, c := range cases {
		got := AppendSamples(append([]byte(nil), c.prefix...), c.in)
		if !bytes.Equal(got[:len(c.prefix)], c.prefix) {
			t.Fatalf("%s: prefix clobbered: % x", c.name, got)
		}
		if h := hex.EncodeToString(got[len(c.prefix):]); h != c.want {
			t.Fatalf("%s: appended %s, want %s", c.name, h, c.want)
		}
	}
	got := AppendSamples(nil, goldenSamples(16000))
	sum := sha256.Sum256(got)
	const want = "f601fd540d5e8143b3df20a178be666fae7d20f31ca7d262bbc74c6263a4f6ac"
	if len(got) != 32000 || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("16000 samples: %d bytes, sha256 %x, want 32000 bytes, %s", len(got), sum, want)
	}
}

// TestAppendSamplesRoundTrip: DecodeSamples inverts AppendSamples for random
// lengths and contents, whatever capacity dst starts with.
func TestAppendSamplesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		in := make([]int16, r.Intn(3000))
		for j := range in {
			in[j] = int16(r.Uint32())
		}
		dst := make([]byte, r.Intn(8), r.Intn(8)+8+r.Intn(2)*len(in)*2)
		prefix := append([]byte(nil), dst...)
		enc := AppendSamples(dst, in)
		if !bytes.Equal(enc[:len(prefix)], prefix) {
			t.Fatalf("round %d: prefix clobbered", i)
		}
		out, err := DecodeSamples(nil, enc[len(prefix):])
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("round %d: decoded %d samples, want %d", i, len(out), len(in))
		}
		for j := range in {
			if out[j] != in[j] {
				t.Fatalf("round %d sample %d: %d, want %d", i, j, out[j], in[j])
			}
		}
	}
}
