package netfront

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pcm"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

// TestReadFrameErrors pins the reader's failure modes: clean EOF only at a
// frame boundary, ErrUnexpectedEOF inside a header or body, and
// ErrFrameTooLarge for a declared length beyond the cap.
func TestReadFrameErrors(t *testing.T) {
	var hdr [HeaderLen]byte
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated header", []byte{1, 0}, io.ErrUnexpectedEOF},
		{"truncated body", append(AppendFrameHeader(nil, FrameUtterance, 8), 1, 2), io.ErrUnexpectedEOF},
		{"oversize length", AppendFrameHeader(nil, FrameUtterance, 1<<30), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		_, _, err := ReadFrame(bytes.NewReader(tc.in), &hdr, nil, DefaultMaxBody)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Zero-length body is legal framing (some types reject it at decode).
	typ, body, err := ReadFrame(bytes.NewReader(AppendFrameHeader(nil, FrameStreamClose, 0)), &hdr, nil, DefaultMaxBody)
	if err != nil || typ != FrameStreamClose || len(body) != 0 {
		t.Errorf("zero-length body: typ=%#x body=%d err=%v", typ, len(body), err)
	}
}

// TestDecodeMalformed pins the decoder rejections the fuzz corpus seeds.
func TestDecodeMalformed(t *testing.T) {
	if _, _, err := DecodeID(nil); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("DecodeID(nil): %v", err)
	}
	if _, _, err := DecodeID([]byte{1, 2, 3}); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("DecodeID(3 bytes): %v", err)
	}
	if _, err := decodeSamples(nil, []byte{1, 2, 3}); !errors.Is(err, ErrMalformedFrame) {
		t.Errorf("decodeSamples(odd): %v", err)
	}
}

// sinkConn is a net.Conn whose writes are counted and discarded; reads
// block. It lets the connection handler run without a real socket.
type sinkConn struct {
	wrote chan int
}

func (s *sinkConn) Read(b []byte) (int, error)       { select {} }
func (s *sinkConn) Write(b []byte) (int, error)      { s.wrote <- len(b); return len(b), nil }
func (s *sinkConn) Close() error                     { return nil }
func (s *sinkConn) LocalAddr() net.Addr              { return nil }
func (s *sinkConn) RemoteAddr() net.Addr             { return nil }
func (s *sinkConn) SetDeadline(time.Time) error      { return nil }
func (s *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (s *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestConnSubmitPathAllocFree is the ISSUE acceptance bar for the serving
// edge: the per-connection steady-state path — decode an utterance frame,
// submit it, classify it, write the response — must allocate nothing. It
// drives the connection handler directly over a write-counting fake socket
// so AllocsPerRun sees the whole round trip (AllocsPerRun counts mallocs
// process-wide, so the worker-side path is covered too).
func TestConnSubmitPathAllocFree(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fe := NewFrontEnd(srv, Config{})
	sink := &sinkConn{wrote: make(chan int, 4)}
	c := newConn(fe, sink)

	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utt := gen.Example(0, 0, 0).Samples
	body := binaryLEUint32(nil, 9) // request id
	body = pcm.Append(body, utt)

	roundTrip := func() {
		if !c.handleUtterance(body) {
			t.Fatal("handleUtterance rejected a well-formed frame")
		}
		<-sink.wrote // response written: request context recycled
	}
	for i := 0; i < 16; i++ { // warm the ticket and context pools
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs > 0 {
		t.Fatalf("steady-state submit path allocates %.1f objects/op, want 0", allocs)
	}
}

// binaryLEUint32 appends v little-endian (test helper; the non-test path
// uses encoding/binary directly).
func binaryLEUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// capConn is a net.Conn that records writes (for wire-format assertions).
type capConn struct {
	sinkConn
	buf bytes.Buffer
}

func (c *capConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// TestStreamErrorWireFormat pins FrameStreamError's v2 encoding: a per-hop
// failure must carry its stream id, its hop number, and a structured
// wire-error (code, retry hint, message), so the peer can tell exactly
// which slot of the hop sequence has no label and whether retrying helps.
func TestStreamErrorWireFormat(t *testing.T) {
	cc := &capConn{}
	c := newConn(NewFrontEnd(nil, Config{}), cc)
	c.writeStreamError(7, 42, errors.New("hop went sideways"))
	var hdr [HeaderLen]byte
	typ, body, err := ReadFrame(&cc.buf, &hdr, nil, DefaultMaxBody)
	if err != nil || typ != FrameStreamError {
		t.Fatalf("typ=%#x err=%v", typ, err)
	}
	if len(body) < 12+wireErrLen {
		t.Fatalf("%d-byte body", len(body))
	}
	id, rest, err := DecodeID(body)
	if err != nil || id != 7 {
		t.Fatalf("id=%d err=%v", id, err)
	}
	hop := uint64(rest[0]) | uint64(rest[1])<<8 | uint64(rest[2])<<16 | uint64(rest[3])<<24 |
		uint64(rest[4])<<32 | uint64(rest[5])<<40 | uint64(rest[6])<<48 | uint64(rest[7])<<56
	if hop != 42 {
		t.Fatalf("hop=%d, want 42", hop)
	}
	we, err := DecodeWireError(rest[8:])
	if err != nil {
		t.Fatalf("DecodeWireError: %v", err)
	}
	if we.Code != CodeInternal {
		t.Fatalf("code=%d, want CodeInternal", we.Code)
	}
	if we.Msg != "hop went sideways" {
		t.Fatalf("message %q", we.Msg)
	}
}

// TestWireErrorRoundTrip pins the wire-error payload encoding itself.
func TestWireErrorRoundTrip(t *testing.T) {
	in := WireError{Code: CodeDeadlineExceeded, RetryAfter: 7 * time.Millisecond, Msg: "shed"}
	b := AppendWireError(nil, in)
	if len(b) != wireErrLen+len(in.Msg) {
		t.Fatalf("%d bytes, want %d", len(b), wireErrLen+len(in.Msg))
	}
	out, err := DecodeWireError(b)
	if err != nil {
		t.Fatalf("DecodeWireError: %v", err)
	}
	if out != in {
		t.Fatalf("round trip %+v, want %+v", out, in)
	}
	if _, err := DecodeWireError(b[:wireErrLen-1]); err == nil {
		t.Fatal("truncated wire error decoded without error")
	}
}

// TestHealthAckRoundTrip pins the FrameHealthAck codec: a multi-model,
// multi-shard snapshot survives encode/decode, and truncated or
// trailing-garbage bodies are rejected rather than misparsed.
func TestHealthAckRoundTrip(t *testing.T) {
	in := []core.ModelHealth{
		{Model: "kws", Version: 3, Shards: []core.ShardStatus{
			{Shard: 0, State: core.BreakerClosed, Gen: 1, FailureRate: 0.5, Workers: 2, Live: 2},
			{Shard: 1, State: core.BreakerHalfOpen, ConsecutiveFailures: 4, FailureRate: 1, Trips: 2, Rebuilds: 1, Workers: 2, Live: 0},
		}},
		{Model: "vad", Version: 9, Shards: []core.ShardStatus{
			{Shard: 0, State: core.BreakerOpen, Trips: 1, Workers: 1, Live: 1},
		}},
	}
	b := AppendHealthAck(nil, 42, in)
	id, out, err := DecodeHealthAck(b)
	if err != nil {
		t.Fatalf("DecodeHealthAck: %v", err)
	}
	if id != 42 || len(out) != 2 {
		t.Fatalf("id=%d models=%d, want 42/2", id, len(out))
	}
	for m := range in {
		if out[m].Model != in[m].Model || out[m].Version != in[m].Version || len(out[m].Shards) != len(in[m].Shards) {
			t.Fatalf("model %d header mangled: %+v want %+v", m, out[m], in[m])
		}
		for s := range in[m].Shards {
			got, want := out[m].Shards[s], in[m].Shards[s]
			if got.Shard != s || got.State != want.State || got.Gen != want.Gen ||
				got.ConsecutiveFailures != want.ConsecutiveFailures || got.Trips != want.Trips ||
				got.Rebuilds != want.Rebuilds || got.Workers != want.Workers || got.Live != want.Live {
				t.Fatalf("model %d shard %d mangled: %+v want %+v", m, s, got, want)
			}
			if d := got.FailureRate - want.FailureRate; d > 0.001 || d < -0.001 {
				t.Fatalf("model %d shard %d rate %v, want ~%v", m, s, got.FailureRate, want.FailureRate)
			}
		}
	}
	for cut := 1; cut < len(b); cut++ {
		if _, _, err := DecodeHealthAck(b[:cut]); err == nil {
			t.Fatalf("truncated health ack (%d of %d bytes) decoded without error", cut, len(b))
		}
	}
	if _, _, err := DecodeHealthAck(append(b, 0)); err == nil {
		t.Fatal("health ack with trailing garbage decoded without error")
	}
}

// TestHealthAckLyingModelCount: a 6-byte body claiming 65535 model records
// is malformed, and decoding it must not reserve space for the claimed
// records (the capacity is capped by what the remaining bytes can hold).
func TestHealthAckLyingModelCount(t *testing.T) {
	body := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(nil, 12), 0xFFFF)
	if _, _, err := DecodeHealthAck(body); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("DecodeHealthAck(lying count) err = %v, want ErrMalformedFrame", err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _, _ = DecodeHealthAck(body)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Fatalf("decoding a 6-byte lying health ack allocates %d B per call", per)
	}
}

// TestHealthAckRateReencodes pins the per-mille rate round trip: a decoded
// health ack re-encodes to its own bytes for every rate a peer can send,
// including those (1001‰ and up) whose float product rate·1000 lands just
// below the integer.
func TestHealthAckRateReencodes(t *testing.T) {
	for _, permille := range []uint32{0, 1, 3, 250, 999, 1000, 1001, 1003, 123457, 1<<32 - 1} {
		shard := make([]byte, healthShardLen)
		binary.LittleEndian.PutUint32(shard[9:13], permille)
		body := binary.LittleEndian.AppendUint32(nil, 5)
		body = binary.LittleEndian.AppendUint16(body, 1)
		body = binary.LittleEndian.AppendUint16(body, 1)
		body = append(body, 'm')
		body = binary.LittleEndian.AppendUint64(body, 2)
		body = binary.LittleEndian.AppendUint16(body, 1)
		body = append(body, shard...)
		id, health, err := DecodeHealthAck(body)
		if err != nil {
			t.Fatalf("%d‰: %v", permille, err)
		}
		if re := AppendHealthAck(nil, id, health); !bytes.Equal(re, body) {
			t.Fatalf("%d‰ re-encodes to %x, decoded from %x", permille, re, body)
		}
	}
}
