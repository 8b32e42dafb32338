//go:build !amd64

package cpufeat

// HasAVX2 is false off amd64, where no package has an AVX2 kernel.
func HasAVX2() bool { return false }
