package cpufeat

// HasAVX2 reports whether this CPU and OS support AVX2 (CPUID and XGETBV,
// cpufeat_amd64.s): the CPU implements it and the OS saves the ymm state.
func HasAVX2() bool
