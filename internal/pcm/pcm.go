// Package pcm is the one PCM16 codec of the module: mono int16 samples as
// little-endian two's-complement byte pairs. The wire payloads of
// netfront, the secure microphone's deposit in the shared-SW window and its
// read-back inside the enclave, and WAV data chunks all use it.
//
// On little-endian hosts the in-memory layout of a []int16 already is
// PCM16, so both directions are one copy through the slice's byte view
// (pcm_le.go); big-endian hosts convert a word at a time (pcm_be.go).
package pcm

import "slices"

// Append appends samples to dst as PCM16 bytes and returns the extended
// slice. It grows dst at most once.
func Append(dst []byte, samples []int16) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 2*len(samples))[:n+2*len(samples)]
	encode(dst[n:], samples)
	return dst
}

// Decode converts the len(b)/2 PCM16 samples of b into dst, reusing dst's
// backing array when its capacity suffices, and returns the samples. An odd
// trailing byte is not a sample and is ignored; callers for which it is an
// error (a wire payload) check len(b) first.
func Decode(dst []int16, b []byte) []int16 {
	n := len(b) / 2
	if cap(dst) < n {
		dst = make([]int16, n)
	}
	dst = dst[:n]
	decode(dst, b[:2*n])
	return dst
}
