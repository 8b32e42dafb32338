// Package netfront is the network-facing serving edge over core.Server: a
// length-prefixed binary protocol spoken over TCP or Unix sockets that
// multiplexes one-shot utterances and open audio streams from many
// connections onto one shared inference server. It is the "ML-as-a-
// service, deployed offline" boundary the paper frames in §V — the model
// and its license checks stay on the device, and this package is how
// external load reaches them.
//
// # Wire protocol (version 4)
//
// Every frame is a 5-byte header — uint32 little-endian body length, then
// one type byte — followed by the body. Multi-byte integers are little
// endian throughout; audio samples are PCM16. Request frames carry a
// caller-chosen 32-bit id (request id for one-shots, stream id for stream
// frames) that the matching response echoes, so one connection can
// interleave any number of outstanding requests.
//
//	FrameUtterance    id | int16 samples...            one-shot classification
//	FrameStreamOpen   id                               open a continuous stream
//	FrameStreamChunk  id | int16 samples...            append audio to a stream
//	FrameStreamClose  id                               flush + close a stream
//	FrameHello        id | u16 len | tenant | u16 len | model
//	FrameHealth       id                               admin: health snapshot
//
//	FrameResult       id | int32 label                 one-shot result
//	FrameStreamResult id | uint64 hop | int32 label    one hop's result, in hop order
//	FrameBusy         id | uint32 retry-after-ms       queue full — retry after the hint
//	FrameError        id | wire-error                  per-request/stream-control failure
//	FrameStreamClosed id | uint64 hops                 stream flushed; total hops
//	FrameStreamError  id | uint64 hop | wire-error     one hop's failure, keeping its place
//	FrameHelloAck     id | uint64 model-version        hello accepted
//	FrameHealthAck    id | health snapshot             see AppendHealthAck
//
// Version 4 retires version 3's batch frames (request 0x05, response
// 0x85): a batch is N one-shots pipelined on one connection, each with its
// own id, BUSY reply, client deadline and retry. A 0x05 frame from a version-3 peer is an
// unknown frame type and closes the connection like any other.
//
// FrameHello (new in version 3, optional — a connection that never sends
// one behaves exactly like a version-2 peer) binds the connection to a
// tenant and a model: the tenant selects the admission-control queue and
// fair-share weight on a multi-tenant backend, and the model selects the
// registry entry every later request on the connection routes to (empty
// means the backend's default model). The server answers FrameHelloAck
// carrying the model's current version, or FrameError with CodeBadRequest
// when the named model is not served. A hello may be re-sent to re-bind.
//
// FrameHealth (new with the self-healing registry) is the admin query: the
// server answers FrameHealthAck carrying a per-model, per-shard snapshot of
// circuit-breaker state, failure scoring, trip/rebuild counts and worker
// liveness (core.ModelHealth). The body layout is documented on
// AppendHealthAck.
//
// where wire-error (version 2, replacing the bare version-1 error string) is
//
//	uint16 code | uint32 retry-after-ms | utf-8 message
//
// code is one of the Code* constants; a nonzero retry-after-ms is the
// server's hint that the failure is transient and worth retrying after that
// many milliseconds (BUSY, queue-deadline shedding, a recovered worker
// panic), while zero means retrying the same request is pointless (bad
// request, draining, internal failure).
//
// Backpressure: a full core.Server queue surfaces as FrameBusy for one-shot
// requests (the connection's read loop never blocks on them); stream chunks
// instead block the submitting connection — per-stream flow control. A
// stream's results always arrive in hop order (core.Stream.OnResult
// sequencing); results of different requests are unordered relative to
// each other.
//
// Resource caps (failure semantics, ARCHITECTURE.md): a frame body beyond
// the receiver's MaxBody, a frame that does not parse, or an unknown frame
// type closes the connection (a length-prefixed stream cannot resync);
// exceeding the per-connection open-stream cap is a per-request
// CodeLimitExceeded error, not a connection error; a connection idle beyond
// the server's read-idle timeout is closed.
package netfront

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pcm"
)

// Frame types. Requests have the high bit clear, responses set. 0x05 and
// 0x85 were version 3's batch request and batch result: they are retired
// and must not be reused, so a version-3 peer's batch is never misread.
const (
	FrameUtterance    = 0x01
	FrameStreamOpen   = 0x02
	FrameStreamChunk  = 0x03
	FrameStreamClose  = 0x04
	FrameHello        = 0x06
	FrameHealth       = 0x07
	FrameResult       = 0x81
	FrameStreamResult = 0x82
	FrameBusy         = 0x83
	FrameError        = 0x84
	FrameStreamClosed = 0x86
	FrameStreamError  = 0x87
	FrameHelloAck     = 0x88
	FrameHealthAck    = 0x89
)

// HeaderLen is the fixed frame-header size: uint32 body length + type byte.
const HeaderLen = 5

// Wire error codes (the uint16 code field of FrameError/FrameStreamError).
// Codes classify the failure so clients can build retry policy on structure
// instead of parsing error strings.
const (
	// CodeInternal is an unclassified server-side failure; not retryable.
	CodeInternal uint16 = 1
	// CodeBusy reports queue backpressure (also carried implicitly by
	// FrameBusy); retryable after the hint.
	CodeBusy uint16 = 2
	// CodeDeadlineExceeded reports that the request was shed because its
	// queue deadline passed before a worker picked it up; retryable.
	CodeDeadlineExceeded uint16 = 3
	// CodeUnavailable reports a server that cannot take the request: closed
	// or draining (retry-after zero — redial later), or shedding this
	// tenant under overload control (nonzero computed retry-after — back
	// off for the hint, then retry).
	CodeUnavailable uint16 = 4
	// CodeBadRequest reports protocol misuse scoped to one request (chunk
	// for an unopened stream, duplicate stream id); not retryable.
	CodeBadRequest uint16 = 5
	// CodeLimitExceeded reports a per-connection resource cap (open-stream
	// budget); not retryable until the caller releases resources.
	CodeLimitExceeded uint16 = 6
	// CodePanic reports an inference that panicked and was recovered; the
	// worker pool survived, so the request is retryable.
	CodePanic uint16 = 7
	// CodeModelSwapped reports a request bound to a model generation that a
	// hot swap retired mid-flight (a stream on the old interpreter, or a
	// submit that raced the cutover). Nothing was lost server-side; the
	// caller should reopen/retry against the new generation after the hint.
	CodeModelSwapped uint16 = 8
)

// wireErrLen is the fixed prefix of a wire-error payload: uint16 code +
// uint32 retry-after-ms, before the message bytes.
const wireErrLen = 6

// WireError is the decoded structured error payload of FrameError and
// FrameStreamError (wire protocol v2).
type WireError struct {
	// Code classifies the failure (Code* constants).
	Code uint16
	// RetryAfter is the server's transient-failure hint: nonzero means the
	// request may succeed if retried after this long, zero means retrying
	// is pointless. Millisecond granularity on the wire.
	RetryAfter time.Duration
	// Msg is the human-readable detail, optional.
	Msg string
}

// AppendWireError appends e's wire encoding: code, retry-after-ms, message.
func AppendWireError(dst []byte, e WireError) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, e.Code)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.RetryAfter/time.Millisecond))
	return append(dst, e.Msg...)
}

// DecodeWireError parses a wire-error payload (everything after the id —
// and, for FrameStreamError, the hop — of the frame body).
func DecodeWireError(b []byte) (WireError, error) {
	if len(b) < wireErrLen {
		return WireError{}, fmt.Errorf("%w: %d-byte wire error, want >= %d", ErrMalformedFrame, len(b), wireErrLen)
	}
	return WireError{
		Code:       binary.LittleEndian.Uint16(b[0:2]),
		RetryAfter: time.Duration(binary.LittleEndian.Uint32(b[2:6])) * time.Millisecond,
		Msg:        string(b[6:]),
	}, nil
}

// DefaultMaxBody caps a frame body when Config.MaxBody is unset: 4 MiB
// holds two minutes of 16 kHz PCM16 audio in one utterance or stream chunk,
// while bounding what one connection can force the peer to buffer.
const DefaultMaxBody = 4 << 20

// ErrFrameTooLarge reports a frame whose declared body length exceeds the
// receiver's limit; the connection cannot resync and must close.
var ErrFrameTooLarge = errors.New("netfront: frame exceeds maximum body size")

// ErrMalformedFrame reports a frame body that does not parse under its
// declared type. The connection cannot tell payload from framing afterwards
// and must close.
var ErrMalformedFrame = errors.New("netfront: malformed frame")

// ReadFrame reads one frame from r: the fixed header into *hdr, then the
// body into buf (grown only when its capacity is insufficient — the reuse
// that keeps a connection's steady-state read path allocation-free). It
// returns the frame type and the body slice. io.EOF is returned unwrapped
// when the reader is exactly at end of stream; a partial header or body
// reports io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, hdr *[HeaderLen]byte, buf []byte, maxBody int) (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if n > maxBody {
		return 0, buf, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxBody)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, body, err
	}
	return hdr[4], body, nil
}

// AppendFrameHeader appends a frame header for a body of n bytes.
func AppendFrameHeader(dst []byte, typ byte, n int) []byte {
	var h [HeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(n))
	h[4] = typ
	return append(dst, h[:]...)
}

// DecodeID splits a body that starts with the 32-bit request/stream id,
// returning the id and the rest.
func DecodeID(body []byte) (id uint32, rest []byte, err error) {
	if len(body) < 4 {
		return 0, nil, fmt.Errorf("%w: %d-byte body, want id", ErrMalformedFrame, len(body))
	}
	return binary.LittleEndian.Uint32(body[0:4]), body[4:], nil
}

// decodeSamples converts a PCM16 sample payload into dst (reused when its
// capacity suffices). An odd byte count is malformed.
func decodeSamples(dst []int16, b []byte) ([]int16, error) {
	if len(b)%2 != 0 {
		return nil, fmt.Errorf("%w: odd sample payload (%d bytes)", ErrMalformedFrame, len(b))
	}
	return pcm.Decode(dst, b), nil
}

// MaxHelloName caps the tenant and model names a FrameHello may carry; a
// name is an identifier, not a payload.
const MaxHelloName = 256

// AppendHello appends a FrameHello body: id, then the length-prefixed
// tenant and model names.
func AppendHello(dst []byte, id uint32, tenant, model string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(tenant)))
	dst = append(dst, tenant...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(model)))
	dst = append(dst, model...)
	return dst
}

// DecodeHello parses a FrameHello body into its id, tenant and model names,
// enforcing MaxHelloName and exact body coverage.
func DecodeHello(body []byte) (id uint32, tenant, model string, err error) {
	id, rest, err := DecodeID(body)
	if err != nil {
		return 0, "", "", err
	}
	next := func() (string, error) {
		if len(rest) < 2 {
			return "", fmt.Errorf("%w: hello name lacks length", ErrMalformedFrame)
		}
		n := int(binary.LittleEndian.Uint16(rest[0:2]))
		rest = rest[2:]
		if n > MaxHelloName {
			return "", fmt.Errorf("%w: hello name %d bytes, max %d", ErrMalformedFrame, n, MaxHelloName)
		}
		if n > len(rest) {
			return "", fmt.Errorf("%w: hello name %d bytes beyond body", ErrMalformedFrame, n)
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, nil
	}
	if tenant, err = next(); err != nil {
		return 0, "", "", err
	}
	if model, err = next(); err != nil {
		return 0, "", "", err
	}
	if len(rest) != 0 {
		return 0, "", "", fmt.Errorf("%w: %d trailing bytes after hello", ErrMalformedFrame, len(rest))
	}
	return id, tenant, model, nil
}

// healthShardLen is the fixed wire size of one shard record in a
// FrameHealthAck body: u8 state | u32 gen | u32 consec | u32 rate-permille |
// u32 trips | u32 rebuilds | u16 workers | u16 live.
const healthShardLen = 1 + 4 + 4 + 4 + 4 + 4 + 2 + 2

// healthModelMinLen is the smallest wire size of one model record in a
// FrameHealthAck body: u16 name length, an empty name, u64 version, u16
// shard count, no shards.
const healthModelMinLen = 2 + 8 + 2

// AppendHealthAck appends a FrameHealthAck body: id, u16 model count, then
// per model a length-prefixed name, u64 version, u16 shard count, and per
// shard the fixed healthShardLen record (breaker state byte, rebuild
// generation, consecutive failures, failure-rate in per-mille, trips,
// rebuilds, configured and live workers). Rates are rounded to per-mille
// on the wire, so a decoded ack re-encodes to the same bytes; everything
// else round-trips exactly.
func AppendHealthAck(dst []byte, id uint32, health []core.ModelHealth) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(health)))
	for _, mh := range health {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(mh.Model)))
		dst = append(dst, mh.Model...)
		dst = binary.LittleEndian.AppendUint64(dst, mh.Version)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(mh.Shards)))
		for _, sh := range mh.Shards {
			dst = append(dst, byte(sh.State))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(sh.Gen))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(sh.ConsecutiveFailures))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(math.Round(sh.FailureRate*1000)))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(sh.Trips))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(sh.Rebuilds))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(sh.Workers))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(sh.Live))
		}
	}
	return dst
}

// DecodeHealthAck parses a FrameHealthAck body into its id and the health
// snapshot, enforcing MaxHelloName on model names and exact body coverage.
func DecodeHealthAck(body []byte) (uint32, []core.ModelHealth, error) {
	id, rest, err := DecodeID(body)
	if err != nil {
		return 0, nil, err
	}
	if len(rest) < 2 {
		return 0, nil, fmt.Errorf("%w: health ack lacks model count", ErrMalformedFrame)
	}
	nm := int(binary.LittleEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	// The count is untrusted: reserve no more records than the remaining
	// bytes could hold, so a short body cannot reserve 65535 of them.
	health := make([]core.ModelHealth, 0, min(nm, len(rest)/healthModelMinLen))
	for m := 0; m < nm; m++ {
		if len(rest) < 2 {
			return 0, nil, fmt.Errorf("%w: health model lacks name length", ErrMalformedFrame)
		}
		n := int(binary.LittleEndian.Uint16(rest[0:2]))
		rest = rest[2:]
		if n > MaxHelloName {
			return 0, nil, fmt.Errorf("%w: health model name %d bytes, max %d", ErrMalformedFrame, n, MaxHelloName)
		}
		if len(rest) < n+8+2 {
			return 0, nil, fmt.Errorf("%w: truncated health model record", ErrMalformedFrame)
		}
		mh := core.ModelHealth{Model: string(rest[:n])}
		rest = rest[n:]
		mh.Version = binary.LittleEndian.Uint64(rest[0:8])
		ns := int(binary.LittleEndian.Uint16(rest[8:10]))
		rest = rest[10:]
		if len(rest) < ns*healthShardLen {
			return 0, nil, fmt.Errorf("%w: truncated health shard records", ErrMalformedFrame)
		}
		mh.Shards = make([]core.ShardStatus, ns)
		for s := 0; s < ns; s++ {
			mh.Shards[s] = core.ShardStatus{
				Shard:               s,
				State:               core.BreakerState(rest[0]),
				Gen:                 uint64(binary.LittleEndian.Uint32(rest[1:5])),
				ConsecutiveFailures: int(binary.LittleEndian.Uint32(rest[5:9])),
				FailureRate:         float64(binary.LittleEndian.Uint32(rest[9:13])) / 1000,
				Trips:               uint64(binary.LittleEndian.Uint32(rest[13:17])),
				Rebuilds:            uint64(binary.LittleEndian.Uint32(rest[17:21])),
				Workers:             int(binary.LittleEndian.Uint16(rest[21:23])),
				Live:                int(binary.LittleEndian.Uint16(rest[23:25])),
			}
			rest = rest[healthShardLen:]
		}
		health = append(health, mh)
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after health ack", ErrMalformedFrame, len(rest))
	}
	return id, health, nil
}
