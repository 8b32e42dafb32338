package dsp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// frameKernelCases are the two frame kernels fftStagePairs and unzipPower
// can run: the Go loops, available everywhere, and the AVX2 assembly,
// available on amd64 hosts whose CPU and OS support AVX2.
var frameKernelCases = []struct {
	name string
	avx2 bool
}{{"scalar", false}, {"avx2", true}}

// useFrameKernel points the frame kernel at one implementation and returns
// the function that restores the previous choice.
func useFrameKernel(avx2 bool) (restore func()) {
	saved := useAVX2
	useAVX2 = avx2
	return func() { useAVX2 = saved }
}

// forEachFrameKernel runs fn as one subtest per frame kernel with useAVX2
// set accordingly. The AVX2 subtest skips on hosts without AVX2. Tests
// using it must not run in parallel.
func forEachFrameKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, kc := range frameKernelCases {
		t.Run(kc.name, func(t *testing.T) {
			if kc.avx2 && !cpufeat.HasAVX2() {
				t.Skip("CPU or OS lacks AVX2")
			}
			defer useFrameKernel(kc.avx2)()
			fn(t)
		})
	}
}

// FuzzFrameKernels compares the two frame kernels stage by stage on
// arbitrary int16 frames over every sweep geometry and the paper's: the raw
// packed spectrum z after gatherFrame and after fftStagePairs, and the raw
// powers after unzipPower, must be identical. Fingerprint bytes pass through the log
// compression, which can hide a one-LSB slip; these cannot. It also checks
// the premise of binAverage's exactness, that every power is below 2^32.
func FuzzFrameKernels(f *testing.F) {
	if !cpufeat.HasAVX2() {
		f.Skip("CPU or OS lacks AVX2")
	}
	geoms := append([]FrontendConfig{DefaultFrontend()}, sweepConfigs()...)
	fes := make([]*Frontend, len(geoms))
	for i, cfg := range geoms {
		fe, err := NewFrontend(cfg)
		if err != nil {
			f.Fatal(err)
		}
		fes[i] = fe
	}
	f.Add([]byte{0x00, 0x80}, uint8(0)) // every sample -32768
	f.Add([]byte{0xff, 0x7f, 0x00, 0x80}, uint8(0))
	f.Add([]byte{0xff, 0x7f, 0, 0, 0, 0, 0, 0}, uint8(13))
	f.Add([]byte{0x01, 0x00}, uint8(20))
	r := rand.New(rand.NewSource(75))
	for g := range fes {
		noise := make([]byte, 2*fes[g].cfg.FFTSize)
		r.Read(noise)
		f.Add(noise, uint8(g))
	}
	f.Fuzz(func(t *testing.T, data []byte, geom uint8) {
		if len(data) < 2 {
			return
		}
		fe := fes[int(geom)%len(fes)]
		m := fe.cfg.FFTSize / 2
		// The frame repeats data's samples to the full FFT size, so short
		// inputs still fill every slot the window covers.
		frame := make([]int16, fe.cfg.FFTSize)
		for i := range frame {
			o := 2 * i % (len(data) &^ 1)
			frame[i] = int16(binary.LittleEndian.Uint16(data[o:]))
		}
		var z [2][][2]int32
		var pow [2][]uint64
		for i, kc := range frameKernelCases {
			z[i], pow[i] = make([][2]int32, m), make([]uint64, m)
			restore := useFrameKernel(kc.avx2)
			gatherFrame(z[i], frame, fe.window, fe.base, fe.gwin)
			restore()
		}
		for k := range z[0] {
			if z[0][k] != z[1][k] {
				t.Fatalf("geometry %d: z[%d] after the gather: scalar %v, avx2 %v",
					int(geom)%len(fes), k, z[0][k], z[1][k])
			}
		}
		for i, kc := range frameKernelCases {
			restore := useFrameKernel(kc.avx2)
			fftStagePairs(z[i], fe.stages)
			restore()
		}
		for k := range z[0] {
			if z[0][k] != z[1][k] {
				t.Fatalf("geometry %d: z[%d] after the stage pairs: scalar %v, avx2 %v",
					int(geom)%len(fes), k, z[0][k], z[1][k])
			}
		}
		for i, kc := range frameKernelCases {
			restore := useFrameKernel(kc.avx2)
			unzipPower(z[i], fe.post, pow[i])
			restore()
		}
		for k := range pow[0] {
			if pow[0][k] != pow[1][k] {
				t.Fatalf("geometry %d: pow[%d]: scalar %d, avx2 %d", int(geom)%len(fes), k, pow[0][k], pow[1][k])
			}
			if pow[0][k] >= 1<<32 {
				t.Fatalf("geometry %d: pow[%d] = %d, not below 2^32", int(geom)%len(fes), k, pow[0][k])
			}
		}
	})
}

// TestBinAverageExact: the divide-free bin average equals acc/d for every
// width d from 1 to the paper's AvgWidth and beyond, at d·T-1, d·T and
// d·T+1 for every log threshold T (where a slip of one would move a
// fingerprint byte), at random sums up to the proven bound d·(2^32-1), and
// at the bound itself for the widest width validate admits.
func TestBinAverageExact(t *testing.T) {
	check := func(acc uint64, d int) {
		t.Helper()
		if got, want := binAverage(acc, binReciprocal(d)), acc/uint64(d); got != want {
			t.Fatalf("binAverage(%d) over %d bins = %d, want %d", acc, d, got, want)
		}
	}
	r := rand.New(rand.NewSource(76))
	widths := []int{maxAvgWidth - 1, maxAvgWidth}
	for d := 1; d <= 64; d++ {
		widths = append(widths, d)
	}
	for s := 7; s < 16; s++ {
		widths = append(widths, 1<<s-1, 1<<s, 1<<s+1, 3<<(s-1))
	}
	for _, d := range widths {
		for v := 0; v < 255; v++ {
			dt := uint64(d) * logThresholds[v]
			check(dt-1, d)
			check(dt, d)
			check(dt+1, d)
		}
		bound := uint64(d) * (1<<32 - 1)
		check(0, d)
		check(bound, d)
		for range 2000 {
			check(r.Uint64()%(bound+1), d)
		}
	}
	// (acc+1)·d = 2^64 exactly: the edge of the exactness condition.
	check(1<<48-1, maxAvgWidth)
}
