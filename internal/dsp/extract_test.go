package dsp

import (
	"math/rand"
	"testing"
)

func randUtterance(r *rand.Rand, n int) []int16 {
	s := make([]int16, n)
	for i := range s {
		s[i] = int16(r.Intn(65536) - 32768)
	}
	return s
}

// TestExtractIntoMatchesExtract: the zero-alloc path must produce the same
// fingerprint as the allocating convenience wrapper, including for short
// (zero-padded) and long (truncated) inputs.
func TestExtractIntoMatchesExtract(t *testing.T) {
	fe, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 100, fe.Config().UtteranceSamples() / 2, fe.Config().UtteranceSamples(), fe.Config().SampleRate} {
		samples := randUtterance(r, n)
		want := fe.Extract(samples)
		dst := make([]uint8, fe.Config().FingerprintLen())
		got := fe.ExtractInto(dst, samples)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d != %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: feature %d: %d != %d", n, i, got[i], want[i])
			}
		}
		// dst ownership: the returned slice must alias the provided buffer.
		if &got[0] != &dst[0] {
			t.Fatalf("n=%d: ExtractInto reallocated despite sufficient capacity", n)
		}
	}
}

// TestExtractIntoUndersizedDst: a too-small buffer is grown, not overrun.
func TestExtractIntoUndersizedDst(t *testing.T) {
	fe, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	samples := randUtterance(rand.New(rand.NewSource(1)), fe.Config().UtteranceSamples())
	got := fe.ExtractInto(make([]uint8, 3), samples)
	if len(got) != fe.Config().FingerprintLen() {
		t.Fatalf("length %d, want %d", len(got), fe.Config().FingerprintLen())
	}
}

// TestExtractIntoZeroAlloc is the ISSUE acceptance criterion: extraction
// into a reused buffer performs no heap allocations.
func TestExtractIntoZeroAlloc(t *testing.T) {
	forEachFrameKernel(t, func(t *testing.T) {
		fe, err := NewFrontend(DefaultFrontend())
		if err != nil {
			t.Fatal(err)
		}
		samples := randUtterance(rand.New(rand.NewSource(2)), fe.Config().UtteranceSamples())
		dst := make([]uint8, fe.Config().FingerprintLen())
		allocs := testing.AllocsPerRun(10, func() {
			fe.ExtractInto(dst, samples)
		})
		if allocs != 0 {
			t.Fatalf("ExtractInto allocates %v times per run, want 0", allocs)
		}
	})
}

// TestExtractAllocsExactlyOnce: the convenience wrapper may allocate only
// its result slice.
func TestExtractAllocsExactlyOnce(t *testing.T) {
	fe, err := NewFrontend(DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	samples := randUtterance(rand.New(rand.NewSource(3)), fe.Config().UtteranceSamples())
	allocs := testing.AllocsPerRun(10, func() {
		fe.Extract(samples)
	})
	if allocs != 1 {
		t.Fatalf("Extract allocates %v times per run, want exactly 1 (the result)", allocs)
	}
}
