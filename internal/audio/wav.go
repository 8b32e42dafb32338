// Package audio provides PCM16 WAV encoding/decoding — the container format
// of the Speech Commands dataset ("105,000 WAVE audio files", §VI) — plus
// deterministic synthesis primitives used to generate the substitute corpus.
package audio

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pcm"
)

// EncodeWAV serializes mono PCM16 samples into a canonical RIFF/WAVE file.
func EncodeWAV(samples []int16, sampleRate int) []byte {
	dataLen := len(samples) * 2
	buf := make([]byte, 44, 44+dataLen)
	copy(buf[0:4], "RIFF")
	binary.LittleEndian.PutUint32(buf[4:8], uint32(36+dataLen))
	copy(buf[8:12], "WAVE")
	copy(buf[12:16], "fmt ")
	binary.LittleEndian.PutUint32(buf[16:20], 16)                   // PCM chunk size
	binary.LittleEndian.PutUint16(buf[20:22], 1)                    // PCM format
	binary.LittleEndian.PutUint16(buf[22:24], 1)                    // mono
	binary.LittleEndian.PutUint32(buf[24:28], uint32(sampleRate))   // sample rate
	binary.LittleEndian.PutUint32(buf[28:32], uint32(sampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(buf[32:34], 2)                    // block align
	binary.LittleEndian.PutUint16(buf[34:36], 16)                   // bits per sample
	copy(buf[36:40], "data")
	binary.LittleEndian.PutUint32(buf[40:44], uint32(dataLen))
	return pcm.Append(buf, samples)
}

// DecodeWAV parses a mono PCM16 WAV file, tolerating extra chunks between
// "fmt " and "data" as real-world encoders emit.
func DecodeWAV(data []byte) (samples []int16, sampleRate int, err error) {
	if len(data) < 44 {
		return nil, 0, errors.New("audio: WAV too short")
	}
	if string(data[0:4]) != "RIFF" || string(data[8:12]) != "WAVE" {
		return nil, 0, errors.New("audio: not a RIFF/WAVE file")
	}
	pos := 12
	var fmtSeen bool
	for pos+8 <= len(data) {
		id := string(data[pos : pos+4])
		size := int(binary.LittleEndian.Uint32(data[pos+4 : pos+8]))
		body := pos + 8
		if size < 0 || body+size > len(data) {
			return nil, 0, errors.New("audio: truncated chunk")
		}
		switch id {
		case "fmt ":
			if size < 16 {
				return nil, 0, errors.New("audio: fmt chunk too small")
			}
			format := binary.LittleEndian.Uint16(data[body : body+2])
			channels := binary.LittleEndian.Uint16(data[body+2 : body+4])
			sampleRate = int(binary.LittleEndian.Uint32(data[body+4 : body+8]))
			bits := binary.LittleEndian.Uint16(data[body+14 : body+16])
			if format != 1 || channels != 1 || bits != 16 {
				return nil, 0, fmt.Errorf("audio: unsupported WAV (format %d, %d ch, %d bit)", format, channels, bits)
			}
			fmtSeen = true
		case "data":
			if !fmtSeen {
				return nil, 0, errors.New("audio: data chunk before fmt")
			}
			return pcm.Decode(nil, data[body:body+size]), sampleRate, nil
		}
		pos = body + size
		if size%2 == 1 {
			pos++ // chunks are word-aligned
		}
	}
	return nil, 0, errors.New("audio: no data chunk")
}
