package netfront_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/pcm"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

// testFixture builds a model, utterances, and their direct-path (in-process
// core.Server) labels — the ground truth every wire round trip must match
// bit-exactly.
func testFixture(t testing.TB, n int) (*tflm.Model, [][]int16, []int) {
	t.Helper()
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utts := make([][]int16, n)
	for i := range utts {
		utts[i] = gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0).Samples
	}
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	labels := make([]int, n)
	for i, u := range utts {
		p, err := srv.Submit(u)
		if err != nil {
			t.Fatal(err)
		}
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		labels[i] = r.Label
		p.Release()
	}
	return model, utts, labels
}

// startFrontEnd stands up a core.Server + FrontEnd on a fresh listener and
// returns the dial address. Cleanup closes front end then server.
func startFrontEnd(t testing.TB, model *tflm.Model, cfg core.ServerConfig, network string) string {
	t.Helper()
	srv, err := core.NewServer(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var addr string
	switch network {
	case "tcp":
		addr = "127.0.0.1:0"
	case "unix":
		addr = filepath.Join(t.TempDir(), "omg.sock")
	default:
		t.Fatalf("unsupported network %q", network)
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{})
	go fe.Serve(l)
	t.Cleanup(func() {
		fe.Close()
		srv.Close()
	})
	return l.Addr().String()
}

// TestNetRoundTripOneShot: one-shot classifications over loopback TCP must
// match the direct in-process path label for label.
func TestNetRoundTripOneShot(t *testing.T) {
	model, utts, want := testFixture(t, 8)
	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 2}, "tcp")
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, u := range utts {
		label, err := c.Classify(u)
		if err != nil {
			t.Fatalf("utterance %d: %v", i, err)
		}
		if label != want[i] {
			t.Fatalf("utterance %d: wire label %d, direct label %d", i, label, want[i])
		}
	}
}

// TestClientOneShotAllocs pins what a steady-state one-shot round trip
// allocates, counted process-wide over loopback TCP against a one-worker
// front end (whose own path allocates nothing): the client's per-call
// reply channel, two objects, and no more — the label rides the reply by
// value.
func TestClientOneShotAllocs(t *testing.T) {
	model, utts, want := testFixture(t, 1)
	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 1}, "tcp")
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	classify := func() {
		if label, err := c.Classify(utts[0]); err != nil || label != want[0] {
			t.Fatalf("label %d err %v, want %d", label, err, want[0])
		}
	}
	for range 16 { // warm the server's pools and the client's buffers
		classify()
	}
	if allocs := testing.AllocsPerRun(100, classify); allocs > 2 {
		t.Fatalf("steady-state Classify allocates %.1f objects/op, want <= 2", allocs)
	}
}

// TestNetRoundTripStream: a 10-hop stream over a Unix socket must deliver
// callbacks strictly in hop order with labels identical to the direct
// in-process stream over the same signal.
func TestNetRoundTripStream(t *testing.T) {
	model, utts, _ := testFixture(t, 2)
	cfg := dsp.DefaultFrontend()
	// A signal with exactly 10 hops past warm-up: one full window plus 10
	// strides.
	signal := make([]int16, 0, cfg.UtteranceSamples()+10*cfg.StrideSamples)
	for len(signal) < cap(signal) {
		for _, u := range utts {
			need := cap(signal) - len(signal)
			if need > len(u) {
				need = len(u)
			}
			signal = append(signal, u[:need]...)
		}
	}

	// Direct path ground truth.
	direct, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := direct.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	tickets, err := ds.Submit(signal)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tickets {
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want = append(want, r.Label)
		p.Release()
	}
	direct.Close()
	if len(want) != 11 { // warm-up window hop + 10 steady-state hops
		t.Fatalf("fixture signal produced %d hops, want 11", len(want))
	}

	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 4}, "unix")
	c, err := client.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	var got []int
	var order []uint64
	s, err := c.OpenStream(func(hop uint64, label int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("hop %d: %v", hop, err)
		}
		got = append(got, label)
		order = append(order, hop)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Uneven chunking exercises reassembly through the wire and the
	// streamer.
	for off, step := 0, 0; off < len(signal); off += step {
		step = 999
		if off+step > len(signal) {
			step = len(signal) - off
		}
		if err := s.Send(signal[off : off+step]); err != nil {
			t.Fatal(err)
		}
	}
	hops, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hops != uint64(len(want)) {
		t.Fatalf("stream closed after %d hops, want %d", hops, len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("%d callbacks before StreamClosed, want %d (flush contract)", len(got), len(want))
	}
	for i := range got {
		if order[i] != uint64(i) {
			t.Fatalf("callback %d carried hop %d — out of order", i, order[i])
		}
		if got[i] != want[i] {
			t.Fatalf("hop %d: wire label %d, direct label %d", i, got[i], want[i])
		}
	}
}

// classifyPipelined issues one Classify per utterance, all at once from
// their own goroutines, so the requests pipeline on the client's one
// connection; it returns the labels in utterance order and the first error.
func classifyPipelined(c *client.Client, utts [][]int16) ([]int, error) {
	labels := make([]int, len(utts))
	errs := make([]error, len(utts))
	var wg sync.WaitGroup
	for i, u := range utts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels[i], errs[i] = c.Classify(u)
		}()
	}
	wg.Wait()
	return labels, errors.Join(errs...)
}

// directStream classifies signal as one stream on a throwaway
// single-worker server over model: the hop-ordered ground truth.
func directStream(t testing.TB, model *tflm.Model, signal []int16) []int {
	t.Helper()
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, err := srv.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	tickets, err := st.Submit(signal)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, len(tickets))
	for i, p := range tickets {
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		labels[i] = r.Label
		p.Release()
	}
	return labels
}

// heldEngine is a core.Engine over a real server whose one-shot results
// are held back until gate closes, without holding the worker that
// produced them; streams pass straight through. accepted receives one
// value per one-shot the engine took.
type heldEngine struct {
	*core.Server
	gate     <-chan struct{}
	accepted chan<- struct{}
}

// hold defers fn past the gate on its own goroutine, so the worker moves on.
func (e heldEngine) hold(fn func(core.Result)) func(core.Result) {
	return func(r core.Result) {
		go func() {
			<-e.gate
			fn(r)
		}()
	}
}

// SubmitFuncDeadline submits with the callback held.
func (e heldEngine) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(core.Result)) error {
	err := e.Server.SubmitFuncDeadline(samples, deadline, e.hold(fn))
	if err == nil {
		e.accepted <- struct{}{}
	}
	return err
}

// TrySubmitFuncDeadline submits with the callback held.
func (e heldEngine) TrySubmitFuncDeadline(samples []int16, deadline time.Time, fn func(core.Result)) error {
	err := e.Server.TrySubmitFuncDeadline(samples, deadline, e.hold(fn))
	if err == nil {
		e.accepted <- struct{}{}
	}
	return err
}

// TestNetStreamBesideOneShots: pipelined one-shots, alone or beside a
// stream on the same connection. A connection's requests never wait on one
// another: when the engine holds the one-shots' results back, the stream's
// hop results still arrive, in hop order, and the stream closes while
// every one-shot is outstanding. Every label matches the direct
// core.Server path.
func TestNetStreamBesideOneShots(t *testing.T) {
	model, utts, want := testFixture(t, 10)
	var signal []int16
	for _, u := range utts[:3] {
		signal = append(signal, u...)
	}
	streamWant := directStream(t, model, signal)
	cases := []struct {
		name     string
		oneShots int
		stream   bool
		hold     bool // keep every one-shot outstanding until the stream closed
	}{
		{"pipelined one-shots", len(utts), false, false},
		{"stream beside running one-shots", len(utts), true, false},
		{"stream beside held one-shots", 4, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			release := sync.OnceFunc(func() { close(gate) })
			if !tc.hold {
				release()
			}
			accepted := make(chan struct{}, tc.oneShots)
			reg, err := core.NewRegistry(map[string]core.ModelConfig{"kws": {Model: model}}, core.RegistryConfig{
				Server: core.ServerConfig{Workers: 2},
				Engine: func(m *tflm.Model, cfg core.ServerConfig) (core.Engine, error) {
					srv, err := core.NewServer(m, cfg)
					if err != nil {
						return nil, err
					}
					return heldEngine{Server: srv, gate: gate, accepted: accepted}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			addr := startRegistryFrontEnd(t, reg, netfront.Config{})
			t.Cleanup(release) // a failed case must not leave held results behind
			c, err := client.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var labels []int
			var oneShotErr error
			oneShotsDone := make(chan struct{})
			go func() {
				defer close(oneShotsDone)
				labels, oneShotErr = classifyPipelined(c, utts[:tc.oneShots])
			}()
			if tc.hold {
				for range tc.oneShots {
					<-accepted
				}
			}
			if tc.stream {
				var got []int
				var order []uint64
				s, err := c.OpenStream(func(hop uint64, label int, err error) {
					if err != nil {
						t.Errorf("hop %d: %v", hop, err)
					}
					got = append(got, label)
					order = append(order, hop)
				})
				if err != nil {
					t.Fatal(err)
				}
				for off := 0; off < len(signal); off += 999 {
					if err := s.Send(signal[off:min(off+999, len(signal))]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if tc.hold {
					select {
					case <-oneShotsDone:
						t.Fatal("held one-shots returned before the gate opened")
					default:
					}
					release()
				}
				// Close flushed every hop: the callback is done with got.
				if len(got) != len(streamWant) {
					t.Fatalf("%d hop results, want %d", len(got), len(streamWant))
				}
				for i := range got {
					if order[i] != uint64(i) || got[i] != streamWant[i] {
						t.Fatalf("result %d: hop %d label %d, want hop %d label %d", i, order[i], got[i], i, streamWant[i])
					}
				}
			}
			<-oneShotsDone
			if oneShotErr != nil {
				t.Fatal(oneShotErr)
			}
			for i, l := range labels {
				if l != want[i] {
					t.Fatalf("one-shot %d: wire label %d, direct label %d", i, l, want[i])
				}
			}
		})
	}
}

// TestNetBusy: with the worker deliberately stalled and the queue full, a
// one-shot request must come back as an explicit BUSY reply (the wire face
// of ErrQueueFull), not block, and the connection must keep working
// afterwards.
func TestNetBusy(t *testing.T) {
	model, utts, want := testFixture(t, 2)
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{})
	go fe.Serve(l)
	defer fe.Close()
	c, err := client.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stall the single worker inside a callback, then fill the queue slot.
	entered := make(chan struct{})
	release := make(chan struct{})
	if err := srv.SubmitFuncDeadline(utts[0], time.Time{}, func(core.Result) {
		close(entered)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-entered
	queued, err := srv.Submit(utts[0])
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Classify(utts[1]); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("classify against a full queue: err = %v, want ErrBusy", err)
	}

	close(release)
	queued.Release()
	label, err := c.Classify(utts[1])
	if err != nil {
		t.Fatalf("classify after backpressure cleared: %v", err)
	}
	if label != want[1] {
		t.Fatalf("label %d after BUSY, want %d", label, want[1])
	}
}

// TestNetMixedConcurrentConnections is the -race target: N connections in
// parallel, each interleaving serial one-shots, a stream, and pipelined
// one-shots against one shared server, every result checked against the
// direct path.
func TestNetMixedConcurrentConnections(t *testing.T) {
	model, utts, want := testFixture(t, 6)
	var signal []int16
	for _, u := range utts[:2] {
		signal = append(signal, u...)
	}
	streamWant := directStream(t, model, signal)

	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 4, Queue: 16}, "tcp")
	const conns = 6
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for round := 0; round < 3; round++ {
				switch (g + round) % 3 {
				case 0: // one-shots
					for i, u := range utts {
						label, err := c.Classify(u)
						if errors.Is(err, client.ErrBusy) {
							continue // backpressure is a legal outcome
						}
						if err != nil {
							errs <- err
							return
						}
						if label != want[i] {
							errs <- fmt.Errorf("conn %d: one-shot %d label %d, want %d", g, i, label, want[i])
							return
						}
					}
				case 1: // stream
					var mu sync.Mutex
					var got []int
					s, err := c.OpenStream(func(hop uint64, label int, err error) {
						mu.Lock()
						defer mu.Unlock()
						if err == nil {
							got = append(got, label)
						}
					})
					if err != nil {
						errs <- err
						return
					}
					for off := 0; off < len(signal); off += 1000 {
						end := min(off+1000, len(signal))
						if err := s.Send(signal[off:end]); err != nil {
							errs <- err
							return
						}
					}
					if _, err := s.Close(); err != nil {
						errs <- err
						return
					}
					mu.Lock()
					ok := len(got) == len(streamWant)
					for i := 0; ok && i < len(got); i++ {
						ok = got[i] == streamWant[i]
					}
					mu.Unlock()
					if !ok {
						errs <- fmt.Errorf("conn %d: stream results diverged from direct path", g)
						return
					}
				case 2: // pipelined one-shots
					labels, err := classifyPipelined(c, utts)
					if errors.Is(err, client.ErrBusy) {
						continue // backpressure is a legal outcome
					}
					if err != nil {
						errs <- err
						return
					}
					for i := range labels {
						if labels[i] != want[i] {
							errs <- fmt.Errorf("conn %d: pipelined %d label %d, want %d", g, i, labels[i], want[i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestNetStreamErrors: protocol-level stream misuse is reported per request
// without killing the connection.
func TestNetStreamErrors(t *testing.T) {
	model, utts, want := testFixture(t, 1)
	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 1}, "tcp")
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Double-open of the same id: the client allocates unique ids, so drive
	// the raw frames via a second stream opened after closing the first with
	// pending state — instead exercise the simpler contract: chunk for an
	// unopened stream id comes back as a RemoteError on that stream's
	// callback path, and one-shots still work afterwards.
	s, err := c.OpenStream(func(hop uint64, label int, err error) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The stream is closed server-side; a further Send must surface
	// ErrClosed locally.
	if err := s.Send(utts[0][:100]); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("send on closed stream: err = %v, want ErrClosed", err)
	}
	label, err := c.Classify(utts[0])
	if err != nil || label != want[0] {
		t.Fatalf("one-shot after stream close: label %d err %v, want %d", label, err, want[0])
	}
}

// rawConn is a test helper speaking raw frames at a front end — the
// hostile-input tests need byte-level control the client never exposes.
type rawConn struct {
	t  *testing.T
	nc net.Conn
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) write(typ byte, body []byte) {
	r.t.Helper()
	out := netfront.AppendFrameHeader(nil, typ, len(body))
	if _, err := r.nc.Write(append(out, body...)); err != nil {
		r.t.Fatalf("raw write: %v", err)
	}
}

// read returns the next frame, or an error once the server closed the conn.
func (r *rawConn) read() (byte, []byte, error) {
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [netfront.HeaderLen]byte
	return netfront.ReadFrame(r.nc, &hdr, nil, netfront.DefaultMaxBody)
}

func le32(vs ...uint32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// TestHostileFrames drives byte-level hostile inputs beyond the fuzz
// corpus at a live front end, table-driven: inputs that break framing must
// close the connection (no resync in a length-prefixed stream), while
// protocol misuse scoped to one request must answer a structured
// CodeBadRequest error and leave the connection serving.
func TestHostileFrames(t *testing.T) {
	model, utts, want := testFixture(t, 1)
	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 1}, "tcp")
	cases := []struct {
		name string
		typ  byte
		body []byte
		// wantClose: the conn must die without a reply. Otherwise the reply
		// must be FrameError carrying wantCode.
		wantClose bool
		wantCode  uint16
	}{
		// 0x05 is version 3's retired batch frame: an unknown type now.
		{"oversize declared batch count", 0x05,
			le32(1, 1<<30), true, 0},
		{"batch count beyond body", 0x05,
			le32(1, 3, 0), true, 0},
		{"utterance with odd sample payload", netfront.FrameUtterance,
			append(le32(1), 0xAB), true, 0},
		{"unknown frame type", 0x7F, le32(1), true, 0},
		{"truncated id", netfront.FrameUtterance, []byte{1, 2}, true, 0},
		{"chunk for unopened stream", netfront.FrameStreamChunk,
			append(le32(99), pcm.Append(nil, utts[0][:4])...), false, netfront.CodeBadRequest},
		{"close of unopened stream", netfront.FrameStreamClose,
			le32(98), false, netfront.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rawDial(t, addr)
			r.write(tc.typ, tc.body)
			typ, body, err := r.read()
			if tc.wantClose {
				if err == nil {
					t.Fatalf("server replied %#x to a framing-level attack, want closed conn", typ)
				}
				return
			}
			if err != nil || typ != netfront.FrameError {
				t.Fatalf("typ=%#x err=%v, want FrameError", typ, err)
			}
			we, err := netfront.DecodeWireError(body[4:])
			if err != nil {
				t.Fatal(err)
			}
			if we.Code != tc.wantCode {
				t.Fatalf("code %d, want %d", we.Code, tc.wantCode)
			}
			// Request-scoped failure: the same conn still classifies.
			r.write(netfront.FrameUtterance, append(le32(5), pcm.Append(nil, utts[0])...))
			typ, body, err = r.read()
			if err != nil || typ != netfront.FrameResult {
				t.Fatalf("conn dead after request-scoped error: typ=%#x err=%v", typ, err)
			}
			if id := binary.LittleEndian.Uint32(body[0:4]); id != 5 {
				t.Fatalf("reply id %d, want 5", id)
			}
			if label := int32(binary.LittleEndian.Uint32(body[4:8])); int(label) != want[0] {
				t.Fatalf("label %d, want %d", label, want[0])
			}
		})
	}
}

// TestStreamChunkAfterClosed pins the stream lifecycle edge: once the
// server has acknowledged FrameStreamClose with FrameStreamClosed, the id
// is dead — a further chunk on it is protocol misuse answered with
// CodeBadRequest, not a crash and not a silent re-open.
func TestStreamChunkAfterClosed(t *testing.T) {
	model, utts, _ := testFixture(t, 1)
	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 1}, "tcp")
	r := rawDial(t, addr)
	r.write(netfront.FrameStreamOpen, le32(4))
	r.write(netfront.FrameStreamClose, le32(4))
	typ, _, err := r.read()
	if err != nil || typ != netfront.FrameStreamClosed {
		t.Fatalf("typ=%#x err=%v, want FrameStreamClosed", typ, err)
	}
	r.write(netfront.FrameStreamChunk, append(le32(4), pcm.Append(nil, utts[0][:8])...))
	typ, body, err := r.read()
	if err != nil || typ != netfront.FrameError {
		t.Fatalf("typ=%#x err=%v, want FrameError", typ, err)
	}
	we, err := netfront.DecodeWireError(body[4:])
	if err != nil || we.Code != netfront.CodeBadRequest {
		t.Fatalf("code=%d err=%v, want CodeBadRequest", we.Code, err)
	}
}

// TestInterleavedIDsOneConn pins response routing: requests with ids
// written out of order on one connection must each get their own reply,
// matched by id, regardless of arrival order.
func TestInterleavedIDsOneConn(t *testing.T) {
	model, utts, want := testFixture(t, 3)
	addr := startFrontEnd(t, model, core.ServerConfig{Workers: 2, Queue: 8}, "tcp")
	r := rawDial(t, addr)
	ids := []uint32{7, 2, 9}
	for i, id := range ids {
		r.write(netfront.FrameUtterance, append(le32(id), pcm.Append(nil, utts[i])...))
	}
	got := map[uint32]int32{}
	for range ids {
		typ, body, err := r.read()
		if err != nil || typ != netfront.FrameResult {
			t.Fatalf("typ=%#x err=%v", typ, err)
		}
		got[binary.LittleEndian.Uint32(body[0:4])] = int32(binary.LittleEndian.Uint32(body[4:8]))
	}
	for i, id := range ids {
		label, ok := got[id]
		if !ok {
			t.Fatalf("no reply for id %d", id)
		}
		if int(label) != want[i] {
			t.Fatalf("id %d: label %d, want %d", id, label, want[i])
		}
	}
}

// TestNetMaxStreams pins the per-connection stream cap: opens beyond
// Config.MaxStreams answer CodeLimitExceeded, and closing a stream frees
// its slot.
func TestNetMaxStreams(t *testing.T) {
	model, _, _ := testFixture(t, 1)
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{MaxStreams: 2})
	go fe.Serve(l)
	defer fe.Close()
	r := rawDial(t, l.Addr().String())
	r.write(netfront.FrameStreamOpen, le32(1))
	r.write(netfront.FrameStreamOpen, le32(2))
	r.write(netfront.FrameStreamOpen, le32(3))
	typ, body, err := r.read()
	if err != nil || typ != netfront.FrameError {
		t.Fatalf("typ=%#x err=%v, want FrameError for the over-cap open", typ, err)
	}
	if id := binary.LittleEndian.Uint32(body[0:4]); id != 3 {
		t.Fatalf("error for id %d, want 3", id)
	}
	we, err := netfront.DecodeWireError(body[4:])
	if err != nil || we.Code != netfront.CodeLimitExceeded {
		t.Fatalf("code=%d err=%v, want CodeLimitExceeded", we.Code, err)
	}
	// Closing one stream frees its slot.
	r.write(netfront.FrameStreamClose, le32(1))
	typ, _, err = r.read()
	if err != nil || typ != netfront.FrameStreamClosed {
		t.Fatalf("typ=%#x err=%v, want FrameStreamClosed", typ, err)
	}
	r.write(netfront.FrameStreamOpen, le32(4))
	r.write(netfront.FrameStreamClose, le32(4))
	typ, body, err = r.read()
	if err != nil || typ != netfront.FrameStreamClosed || binary.LittleEndian.Uint32(body[0:4]) != 4 {
		t.Fatalf("typ=%#x err=%v, want stream 4 accepted after a slot freed", typ, err)
	}
}

// TestShutdownDrains pins the graceful-drain contract: Shutdown stops the
// accept loop, waits for quiet connections, and returns within the grace
// period; a busy-forever connection is force-closed with ErrDrainTimeout.
func TestShutdownDrains(t *testing.T) {
	model, utts, want := testFixture(t, 1)
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- fe.Serve(l) }()
	c, err := client.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if label, err := c.Classify(utts[0]); err != nil || label != want[0] {
		t.Fatalf("pre-drain classify: label=%d err=%v", label, err)
	}
	if err := fe.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown of an idle front end: %v", err)
	}
	select {
	case err := <-serveDone:
		if !errors.Is(err, netfront.ErrFrontEndClosed) {
			t.Fatalf("Serve returned %v, want ErrFrontEndClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// New dials are refused once draining.
	if nc, err := net.Dial("tcp", l.Addr().String()); err == nil {
		// The TCP connect may succeed before the closed listener is
		// observed; the conn must then be unserved (EOF on read).
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		var b [1]byte
		if _, err := nc.Read(b[:]); err == nil {
			t.Fatal("post-drain connection was served")
		}
		nc.Close()
	}
}

// TestShutdownForceClosesStuckConn pins the other half of the contract: a
// connection that never goes quiet is force-closed when the grace expires
// and Shutdown reports ErrDrainTimeout.
func TestShutdownForceClosesStuckConn(t *testing.T) {
	model, _, _ := testFixture(t, 1)
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{})
	go fe.Serve(l)
	r := rawDial(t, l.Addr().String())
	// An open stream keeps the conn non-quiet for the whole grace period.
	r.write(netfront.FrameStreamOpen, le32(1))
	// Give the server a moment to register the stream.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	err = fe.Shutdown(200 * time.Millisecond)
	if !errors.Is(err, netfront.ErrDrainTimeout) {
		t.Fatalf("Shutdown = %v, want ErrDrainTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v past its 200ms grace", elapsed)
	}
	// The stuck conn was force-closed.
	if _, _, err := r.read(); err == nil {
		t.Fatal("stuck connection still served after forced drain")
	}
}
