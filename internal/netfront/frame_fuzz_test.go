package netfront

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzFrameDecode feeds arbitrary byte streams through the full receive
// path — frame reader, then the per-type body decoders — asserting the
// invariants a hostile peer must not be able to break: no panics, errors
// only from the documented set, decoded payloads bounded by the bytes that
// carried them, and the reader never over- or under-consuming the stream.
// Bodies the protocol can re-encode (hello, health ack, structured errors)
// must re-encode to exactly the bytes they were decoded from. The
// checked-in corpus (testdata/fuzz/FuzzFrameDecode) pins the regression
// cases: truncated header, truncated body, oversize length, zero-length
// body, odd sample payload, the retired version-3 batch frame (a lying
// count and a well-formed body, both now an unknown type that no decoder
// claims), and the v3 frames — hello, health and health ack, structured
// errors and busy with a retry hint.
func FuzzFrameDecode(f *testing.F) {
	// Truncated header.
	f.Add([]byte{0x01, 0x00})
	// Zero-length body (legal framing).
	f.Add(AppendFrameHeader(nil, FrameStreamClose, 0))
	// Oversize declared length.
	f.Add(AppendFrameHeader(nil, FrameUtterance, 1<<30))
	// Truncated body.
	f.Add(append(AppendFrameHeader(nil, FrameUtterance, 100), 1, 2, 3))
	// Well-formed utterance frame.
	f.Add(append(AppendFrameHeader(nil, FrameUtterance, 8), 1, 0, 0, 0, 10, 0, 20, 0))
	// Odd sample payload.
	f.Add(append(AppendFrameHeader(nil, FrameStreamChunk, 7), 1, 0, 0, 0, 10, 0, 20))
	// Retired batch frame (0x05) whose count lies about the body.
	f.Add(append(AppendFrameHeader(nil, 0x05, 8), 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF))
	// Retired batch frame with a well-formed two-utterance body.
	batch := []byte{9, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0}
	f.Add(append(AppendFrameHeader(nil, 0x05, len(batch)), batch...))
	for _, seed := range v3FrameSeeds() {
		f.Add(seed)
	}

	const maxBody = 1 << 16 // small cap keeps the fuzzer fast
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var hdr [HeaderLen]byte
		var buf []byte
		for {
			before := rd.Len()
			typ, body, err := ReadFrame(rd, &hdr, buf, maxBody)
			buf = body[:cap(body)]
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("ReadFrame error outside the documented set: %v", err)
				}
				return
			}
			if consumed := before - rd.Len(); consumed != HeaderLen+len(body) {
				t.Fatalf("ReadFrame consumed %d bytes for a %d-byte frame", consumed, HeaderLen+len(body))
			}
			switch typ {
			case FrameUtterance, FrameStreamChunk:
				if _, rest, err := DecodeID(body); err == nil {
					if s, err := decodeSamples(nil, rest); err == nil && len(s) != len(rest)/2 {
						t.Fatalf("%d samples from %d payload bytes", len(s), len(rest))
					}
				}
			case FrameStreamOpen, FrameStreamClose, FrameHealth, FrameBusy:
				DecodeID(body)
			case FrameHello:
				if id, tenant, model, err := DecodeHello(body); err == nil {
					if len(tenant) > MaxHelloName || len(model) > MaxHelloName {
						t.Fatalf("hello names of %d and %d bytes accepted", len(tenant), len(model))
					}
					if re := AppendHello(nil, id, tenant, model); !bytes.Equal(re, body) {
						t.Fatalf("hello re-encodes to %x, decoded from %x", re, body)
					}
				}
			case FrameHealthAck:
				if id, health, err := DecodeHealthAck(body); err == nil {
					if re := AppendHealthAck(nil, id, health); !bytes.Equal(re, body) {
						t.Fatalf("health ack re-encodes to %x, decoded from %x", re, body)
					}
				}
			case FrameError, FrameStreamError:
				prefix := 4 // id
				if typ == FrameStreamError {
					prefix += 8 // hop
				}
				if len(body) < prefix {
					break
				}
				if we, err := DecodeWireError(body[prefix:]); err == nil {
					if re := AppendWireError(nil, we); !bytes.Equal(re, body[prefix:]) {
						t.Fatalf("wire error re-encodes to %x, decoded from %x", re, body[prefix:])
					}
				}
			}
		}
	})
}

// v3FrameSeeds are the FuzzFrameDecode seeds, by corpus file name, for the
// frames wire protocol v3 added to v1: hello, health and health ack,
// structured errors and busy with a retry hint, each well formed and in one
// hostile variant.
func v3FrameSeeds() map[string][]byte {
	frame := func(typ byte, body []byte) []byte {
		return append(AppendFrameHeader(nil, typ, len(body)), body...)
	}
	id := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	health := []core.ModelHealth{{
		Model:   "default",
		Version: 3,
		Shards: []core.ShardStatus{
			{State: core.BreakerClosed, Gen: 1, FailureRate: 0.25, Workers: 2, Live: 2},
			{Shard: 1, State: core.BreakerOpen, ConsecutiveFailures: 5, FailureRate: 1, Trips: 2, Rebuilds: 1, Workers: 2},
		},
	}}
	wireErr := AppendWireError(id(9), WireError{Code: CodeUnavailable, RetryAfter: 250 * time.Millisecond, Msg: "draining"})
	streamErr := AppendWireError(binary.LittleEndian.AppendUint64(id(10), 42), WireError{Code: CodeModelSwapped, RetryAfter: time.Millisecond})
	longName := binary.LittleEndian.AppendUint16(id(11), MaxHelloName+1)
	longName = append(longName, bytes.Repeat([]byte{'a'}, MaxHelloName+1)...)
	lyingAck := binary.LittleEndian.AppendUint16(id(12), 0xFFFF)
	return map[string][]byte{
		"hello":                frame(FrameHello, AppendHello(nil, 7, "acme", "default")),
		"hello_name_too_long":  frame(FrameHello, longName),
		"health":               frame(FrameHealth, id(8)),
		"health_ack":           frame(FrameHealthAck, AppendHealthAck(nil, 8, health)),
		"health_ack_count_lie": frame(FrameHealthAck, lyingAck),
		"wire_error":           frame(FrameError, wireErr),
		"wire_error_short":     frame(FrameError, append(id(9), 1, 0, 0)), // shorter than the fixed prefix
		"stream_error":         frame(FrameStreamError, streamErr),
		"busy_hint":            frame(FrameBusy, binary.LittleEndian.AppendUint32(id(13), 40)),
		"busy_no_hint":         frame(FrameBusy, id(13)),
	}
}
