package pcm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
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
// its SHA-256. Decode must turn each pinned byte string back into its
// samples, into a fresh slice and into a reused one (its backing array kept,
// whatever stale samples it held).
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
		got := Append(append([]byte(nil), c.prefix...), c.in)
		if !bytes.Equal(got[:len(c.prefix)], c.prefix) {
			t.Fatalf("%s: prefix clobbered: % x", c.name, got)
		}
		if h := hex.EncodeToString(got[len(c.prefix):]); h != c.want {
			t.Fatalf("%s: appended %s, want %s", c.name, h, c.want)
		}
		raw, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeGolden(t, c.name, raw, c.in)
	}
	in := goldenSamples(16000)
	got := Append(nil, in)
	sum := sha256.Sum256(got)
	const want = "f601fd540d5e8143b3df20a178be666fae7d20f31ca7d262bbc74c6263a4f6ac"
	if len(got) != 32000 || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("16000 samples: %d bytes, sha256 %x, want 32000 bytes, %s", len(got), sum, want)
	}
	checkDecodeGolden(t, "16000 samples", got, in)
}

// checkDecodeGolden requires Decode(dst, raw) to equal want, both into a
// nil dst and into a dst of spare capacity pre-filled with a stale pattern,
// whose backing array must be reused. raw with one more trailing byte must
// decode the same: an odd tail is not a sample.
func checkDecodeGolden(t *testing.T, name string, raw []byte, want []int16) {
	t.Helper()
	if out := Decode(nil, raw); !slices.Equal(out, want) {
		t.Fatalf("%s: decoded %v, want %v", name, out, want)
	}
	if out := Decode(nil, append(slices.Clip(raw), 0x7f)); !slices.Equal(out, want) {
		t.Fatalf("%s: decoded with an odd tail %v, want %v", name, out, want)
	}
	stale := make([]int16, len(want)+5)
	for i := range stale {
		stale[i] = 0x5a5a
	}
	stale = stale[:3]
	out := Decode(stale, raw)
	if !slices.Equal(out, want) {
		t.Fatalf("%s: decoded into reused dst %v, want %v", name, out, want)
	}
	if &out[:1][0] != &stale[:1][0] {
		t.Fatalf("%s: decode reallocated a dst of capacity %d for %d samples", name, cap(stale), len(want))
	}
}

// TestAppendSamplesRoundTrip: Decode inverts Append for random lengths,
// contents and byte alignments of the payload, whatever capacity dst starts
// with, and ignores an odd trailing byte.
func TestAppendSamplesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		in := make([]int16, r.Intn(3000))
		for j := range in {
			in[j] = int16(r.Uint32())
		}
		dst := make([]byte, r.Intn(8), r.Intn(8)+8+r.Intn(2)*len(in)*2)
		prefix := append([]byte(nil), dst...)
		enc := Append(dst, in)
		if !bytes.Equal(enc[:len(prefix)], prefix) {
			t.Fatalf("round %d: prefix clobbered", i)
		}
		payload := enc[len(prefix):]
		if r.Intn(2) == 1 {
			payload = append(payload, byte(r.Intn(256)))
		}
		reuse := make([]int16, r.Intn(len(in)+1), len(in)+r.Intn(4))
		for _, dst := range [][]int16{nil, reuse} {
			out := Decode(dst, payload)
			if !slices.Equal(out, in) {
				t.Fatalf("round %d: decoded %d samples, want %d, or contents differ", i, len(out), len(in))
			}
			if dst != nil && len(in) > 0 && &out[0] != &dst[:1][0] {
				t.Fatalf("round %d: decode reallocated a dst of capacity %d for %d samples", i, cap(dst), len(in))
			}
		}
	}
}

// TestCodecZeroAlloc: with room in dst, neither direction allocates.
func TestCodecZeroAlloc(t *testing.T) {
	in := goldenSamples(16000)
	enc := make([]byte, 0, 2*len(in))
	dec := make([]int16, len(in))
	if a := testing.AllocsPerRun(20, func() { enc = Append(enc[:0], in) }); a != 0 {
		t.Errorf("Append into capacity: %v allocs/op", a)
	}
	if a := testing.AllocsPerRun(20, func() { dec = Decode(dec, enc) }); a != 0 {
		t.Errorf("Decode into capacity: %v allocs/op", a)
	}
}

func BenchmarkAppend(b *testing.B) {
	in := goldenSamples(16000)
	dst := make([]byte, 0, 2*len(in))
	b.SetBytes(int64(2 * len(in)))
	for i := 0; i < b.N; i++ {
		dst = Append(dst[:0], in)
	}
}

func BenchmarkDecode(b *testing.B) {
	raw := Append(nil, goldenSamples(16000))
	dst := make([]int16, 16000)
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		dst = Decode(dst, raw)
	}
}
