//go:build !amd64

package dsp

// stagePairAVX2 is never reached off amd64, where useAVX2 is false.
func stagePairAVX2(z, t1, t2 [][2]int32) {
	panic("dsp: AVX2 frame kernel called off amd64")
}

// unzipPowerAVX2 is never reached off amd64, where useAVX2 is false.
func unzipPowerAVX2(z, post [][2]int32, pow []uint64, groups int) {
	panic("dsp: AVX2 frame kernel called off amd64")
}

// gatherFrameAVX2 is never reached off amd64, where useAVX2 is false.
func gatherFrameAVX2(z [][2]int32, frame []int16, gwin []uint32, base []int32) {
	panic("dsp: AVX2 frame kernel called off amd64")
}
