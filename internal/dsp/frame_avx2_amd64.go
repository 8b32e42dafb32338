package dsp

// stagePairAVX2 runs one fused radix-2² stage pair of fftStagePairs over
// every 4h-point block of z, four butterflies per ymm register: t1 holds
// the h twiddles of stage s, t2 at least the 2h of stage s+1. The caller
// guarantees h = len(t1) is a positive multiple of 4 and len(t2) ≥ 2h.
// Implemented in frame_avx2_amd64.s.
//
//go:noescape
func stagePairAVX2(z, t1, t2 [][2]int32)

// unzipPowerAVX2 runs unzipPower's (k, m-k) pair loop for k = 1..4·groups,
// four pairs per iteration, with m = len(pow). The caller guarantees
// 4·groups < m/2, len(z) ≥ m and len(post) ≥ m. Implemented in
// frame_avx2_amd64.s.
//
//go:noescape
func unzipPowerAVX2(z, post [][2]int32, pow []uint64, groups int)

// gatherFrameAVX2 runs gatherFrame eight blocks at a time with the window
// pairs gwin in the order NewFrontend lays them out. The caller guarantees
// len(base) is a multiple of 8, len(gwin) = 4·len(base), len(z) ≥ len(gwin)
// and len(frame) = 2·len(gwin), and base holds NewFrontend's offsets.
// Implemented in frame_avx2_amd64.s.
//
//go:noescape
func gatherFrameAVX2(z [][2]int32, frame []int16, gwin []uint32, base []int32)
