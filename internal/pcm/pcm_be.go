//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package pcm

import "encoding/binary"

// encode stores samples into dst, len(dst) == 2*len(samples): four samples
// per 8-byte little-endian store, then the last 0–3 one at a time.
func encode(dst []byte, samples []int16) {
	for len(samples) >= 4 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, uint64(uint16(samples[0]))|uint64(uint16(samples[1]))<<16|
			uint64(uint16(samples[2]))<<32|uint64(uint16(samples[3]))<<48)
		samples, dst = samples[4:], dst[8:]
	}
	for i, s := range samples {
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(s))
	}
}

// decode loads dst from b, len(b) == 2*len(dst): four samples per 8-byte
// little-endian load, then the last 0–3 one at a time.
func decode(dst []int16, b []byte) {
	for len(dst) >= 4 && len(b) >= 8 {
		v := binary.LittleEndian.Uint64(b)
		dst[0], dst[1], dst[2], dst[3] = int16(v), int16(v>>16), int16(v>>32), int16(v>>48)
		dst, b = dst[4:], b[8:]
	}
	for i := range dst {
		dst[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
	}
}
