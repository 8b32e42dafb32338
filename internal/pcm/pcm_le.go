//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package pcm

import "unsafe"

// bytesOf is the byte view of s: on a little-endian host, exactly its
// PCM16 encoding.
func bytesOf(s []int16) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 2*len(s))
}

// encode stores samples into dst, len(dst) == 2*len(samples).
func encode(dst []byte, samples []int16) { copy(dst, bytesOf(samples)) }

// decode loads dst from b, len(b) == 2*len(dst).
func decode(dst []int16, b []byte) { copy(bytesOf(dst), b) }
