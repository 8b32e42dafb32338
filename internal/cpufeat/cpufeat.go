// Package cpufeat probes the host CPU once for the instruction-set
// extensions the kernel packages have assembly for. It holds the one probe
// that internal/tflm (the AVX2 GEMM micro-kernel) and internal/dsp (the AVX2
// frame kernel) both read; each of those keeps its own unexported selector,
// set from HasAVX2 at package init, so its tests can run either kernel in
// one binary.
package cpufeat
