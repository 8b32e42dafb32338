package client

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
)

// fakeServer is a scripted protocol peer: each accepted connection is
// handed to handle, which speaks raw frames — the client's failure paths
// get exercised without a model or a core.Server.
func fakeServer(t *testing.T, handle func(conn net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			nc, err := l.Accept()
			if err != nil {
				return
			}
			go handle(nc)
		}
	}()
	return l.Addr().String()
}

// readReq reads one request frame, failing the conn silently on error.
func readReq(nc net.Conn) (byte, []byte, bool) {
	var hdr [netfront.HeaderLen]byte
	typ, body, err := netfront.ReadFrame(nc, &hdr, nil, netfront.DefaultMaxBody)
	return typ, body, err == nil
}

// writeFrame sends one response frame.
func writeFrame(nc net.Conn, typ byte, body []byte) {
	out := netfront.AppendFrameHeader(nil, typ, len(body))
	nc.Write(append(out, body...))
}

// resultFrame builds a FrameResult body.
func resultFrame(id uint32, label int32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, id)
	return binary.LittleEndian.AppendUint32(b, uint32(label))
}

// TestDialTimeoutNonListening pins the satellite fix: Dial against a
// non-listening address must fail, and fail within the configured timeout
// rather than hanging in an unbounded connect.
func TestDialTimeoutNonListening(t *testing.T) {
	// Reserve a port that is then closed: a local address with no listener
	// refuses or times out, never accepts.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	start := time.Now()
	c, err := DialOptions("tcp", addr, Options{DialTimeout: 250 * time.Millisecond})
	if err == nil {
		c.Close()
		t.Fatal("dial of a non-listening address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial failure took %v, not bounded by the 250ms timeout", elapsed)
	}
}

// TestRetryOnBusy pins the opt-in retry policy: BUSY with a retry-after
// hint is retried with backoff until the server accepts, while a client
// without retries surfaces ErrBusy (as a *BusyError carrying the hint).
func TestRetryOnBusy(t *testing.T) {
	var attempts atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			_, body, ok := readReq(nc)
			if !ok {
				return
			}
			id := binary.LittleEndian.Uint32(body[0:4])
			if attempts.Add(1) <= 2 {
				busy := binary.LittleEndian.AppendUint32(nil, id)
				busy = binary.LittleEndian.AppendUint32(busy, 1) // retry after 1ms
				writeFrame(nc, netfront.FrameBusy, busy)
				continue
			}
			writeFrame(nc, netfront.FrameResult, resultFrame(id, 7))
		}
	})

	// Without retries: the BusyError surfaces, errors.Is matches ErrBusy,
	// and the hint is preserved.
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Classify([]int16{1, 2, 3})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("no-retry busy: err = %v, want ErrBusy", err)
	}
	var be *BusyError
	if !errors.As(err, &be) || be.RetryAfter != time.Millisecond {
		t.Fatalf("busy error %#v lacks the 1ms retry-after hint", err)
	}
	c.Close()

	// With retries: two BUSYs then success.
	attempts.Store(0)
	c, err = DialOptions("tcp", addr, Options{
		Retry: RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	label, err := c.Classify([]int16{1, 2, 3})
	if err != nil || label != 7 {
		t.Fatalf("retried classify: label=%d err=%v, want 7", label, err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}
}

// TestClientDeadline pins ClassifyDeadline: a server that never answers
// must not hang the caller past its deadline.
func TestClientDeadline(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		// Read requests, answer nothing.
		for {
			if _, _, ok := readReq(nc); !ok {
				nc.Close()
				return
			}
		}
	})
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.ClassifyDeadline([]int16{1}, time.Now().Add(50*time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	// The timed-out request deregistered itself: a later request gets a
	// fresh id and the connection is still usable for registration.
	if c.cc == nil || !c.cc.alive() {
		t.Fatal("connection died after a client-side timeout")
	}
}

// TestRedialAfterConnLoss pins automatic redial: a connection the server
// drops mid-request fails that attempt with ErrConnLost (retryable), and
// the retry loop transparently redials and succeeds.
func TestRedialAfterConnLoss(t *testing.T) {
	var conns atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		if conns.Add(1) == 1 {
			// First connection: read the request, then hang up mid-exchange.
			readReq(nc)
			return
		}
		for {
			_, body, ok := readReq(nc)
			if !ok {
				return
			}
			id := binary.LittleEndian.Uint32(body[0:4])
			writeFrame(nc, netfront.FrameResult, resultFrame(id, 3))
		}
	})
	c, err := DialOptions("tcp", addr, Options{
		Redial: true,
		Retry:  RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	label, err := c.Classify([]int16{5})
	if err != nil || label != 3 {
		t.Fatalf("classify across conn loss: label=%d err=%v, want 3", label, err)
	}
	if n := conns.Load(); n < 2 {
		t.Fatalf("server saw %d connections, want a redial", n)
	}

	// Without Redial, a lost conn is terminal: every later request fails
	// with ErrConnLost, which still wraps ErrClosed.
	c2, err := DialOptions("tcp", addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.cc.kill()
	<-c2.cc.done
	_, err = c2.Classify([]int16{5})
	if !errors.Is(err, ErrConnLost) || !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrConnLost wrapping ErrClosed", err)
	}
}

// TestStreamBroken pins stream semantics across connection loss: the
// callback observes exactly one ErrStreamBroken (with NoHop), Close
// returns it, later Sends report it, and the stream is never resumed on a
// redialed connection.
func TestStreamBroken(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		// Accept the stream open, then drop the connection.
		readReq(nc)
		nc.Close()
	})
	broken := make(chan error, 4)
	c, err := DialOptions("tcp", addr, Options{Redial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.OpenStream(func(hop uint64, label int, err error) {
		if hop == NoHop {
			broken <- err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-broken:
		if !errors.Is(err, ErrStreamBroken) {
			t.Fatalf("callback err = %v, want ErrStreamBroken", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream callback never observed the broken connection")
	}
	if _, err := s.Close(); !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("Close: %v, want ErrStreamBroken", err)
	}
	if err := s.Send([]int16{1}); !errors.Is(err, ErrStreamBroken) {
		t.Fatalf("Send after break: %v, want ErrStreamBroken", err)
	}
	select {
	case err := <-broken:
		t.Fatalf("second stream-broken callback: %v", err)
	default:
	}
}

// TestRemoteErrorNotRetried pins that a non-retryable structured error
// (zero retry-after) fails immediately even under an aggressive retry
// policy, carrying its wire code.
func TestRemoteErrorNotRetried(t *testing.T) {
	var attempts atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			_, body, ok := readReq(nc)
			if !ok {
				return
			}
			attempts.Add(1)
			id := binary.LittleEndian.Uint32(body[0:4])
			out := binary.LittleEndian.AppendUint32(nil, id)
			out = netfront.AppendWireError(out, netfront.WireError{Code: netfront.CodeBadRequest, Msg: "nope"})
			writeFrame(nc, netfront.FrameError, out)
		}
	})
	c, err := DialOptions("tcp", addr, Options{
		Retry: RetryPolicy{Attempts: 5, Base: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Classify([]int16{1})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != netfront.CodeBadRequest || re.Retryable() {
		t.Fatalf("err = %v, want non-retryable CodeBadRequest RemoteError", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("non-retryable error was attempted %d times", n)
	}
}

// errorFrame builds a FrameError body carrying a structured wire error.
func errorFrame(id uint32, code uint16, retryAfter time.Duration, msg string) []byte {
	out := binary.LittleEndian.AppendUint32(nil, id)
	return netfront.AppendWireError(out, netfront.WireError{Code: code, RetryAfter: retryAfter, Msg: msg})
}

// TestRetryOnSwappedAndUnavailable pins the code-aware retry policy
// (ISSUE 8 satellite): CodeModelSwapped and CodeUnavailable carrying a
// retry-after hint are retried like BUSY; the same codes without a hint
// surface immediately.
func TestRetryOnSwappedAndUnavailable(t *testing.T) {
	for _, code := range []uint16{netfront.CodeModelSwapped, netfront.CodeUnavailable} {
		// With a hint: two failures then success must be absorbed.
		var attempts atomic.Int32
		addr := fakeServer(t, func(nc net.Conn) {
			defer nc.Close()
			for {
				_, body, ok := readReq(nc)
				if !ok {
					return
				}
				id := binary.LittleEndian.Uint32(body[0:4])
				if attempts.Add(1) <= 2 {
					writeFrame(nc, netfront.FrameError, errorFrame(id, code, time.Millisecond, "swapping"))
					continue
				}
				writeFrame(nc, netfront.FrameResult, resultFrame(id, 9))
			}
		})
		c, err := DialOptions("tcp", addr, Options{
			Retry: RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 4 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		label, err := c.Classify([]int16{1, 2})
		if err != nil || label != 9 {
			t.Fatalf("code %d with hint: label=%d err=%v, want retried success 9", code, label, err)
		}
		if n := attempts.Load(); n != 3 {
			t.Fatalf("code %d with hint: server saw %d attempts, want 3", code, n)
		}
		c.Close()

		// Without a hint: the same code must NOT be retried (a draining
		// server's unavailable is terminal for this connection).
		var bare atomic.Int32
		addr = fakeServer(t, func(nc net.Conn) {
			defer nc.Close()
			for {
				_, body, ok := readReq(nc)
				if !ok {
					return
				}
				bare.Add(1)
				id := binary.LittleEndian.Uint32(body[0:4])
				writeFrame(nc, netfront.FrameError, errorFrame(id, code, 0, "gone"))
			}
		})
		c, err = DialOptions("tcp", addr, Options{
			Retry: RetryPolicy{Attempts: 5, Base: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Classify([]int16{1, 2})
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != code {
			t.Fatalf("code %d without hint: err = %v, want RemoteError", code, err)
		}
		if n := bare.Load(); n != 1 {
			t.Fatalf("code %d without hint was attempted %d times, want 1", code, n)
		}
		c.Close()
	}
}

// TestHelloHandshake pins the v3 handshake: a client with Tenant/Model set
// sends FrameHello before any request, records the acked model version,
// re-binds on redial, and fails the dial outright when the server rejects
// the model.
func TestHelloHandshake(t *testing.T) {
	var hellos atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			typ, body, ok := readReq(nc)
			if !ok {
				return
			}
			switch typ {
			case netfront.FrameHello:
				id, tenant, model, err := netfront.DecodeHello(body)
				if err != nil || tenant != "acme" || model != "kws" {
					writeFrame(nc, netfront.FrameError, errorFrame(id, netfront.CodeBadRequest, 0, "bad hello"))
					return
				}
				hellos.Add(1)
				ack := binary.LittleEndian.AppendUint32(nil, id)
				ack = binary.LittleEndian.AppendUint64(ack, 42)
				writeFrame(nc, netfront.FrameHelloAck, ack)
			case netfront.FrameUtterance:
				id := binary.LittleEndian.Uint32(body[0:4])
				writeFrame(nc, netfront.FrameResult, resultFrame(id, 3))
			}
		}
	})

	c, err := DialOptions("tcp", addr, Options{Tenant: "acme", Model: "kws", Redial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v := c.ModelVersion(); v != 42 {
		t.Fatalf("model version %d after handshake, want 42", v)
	}
	if label, err := c.Classify([]int16{1}); err != nil || label != 3 {
		t.Fatalf("classify after handshake: label=%d err=%v", label, err)
	}
	if n := hellos.Load(); n != 1 {
		t.Fatalf("server saw %d hellos, want 1", n)
	}

	// Kill the transport: the next request must redial AND re-handshake.
	c.mu.Lock()
	c.cc.nc.Close()
	c.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if label, err := c.Classify([]int16{1}); err == nil && label == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("classify never recovered after transport loss")
		}
	}
	if n := hellos.Load(); n != 2 {
		t.Fatalf("server saw %d hellos after redial, want 2", n)
	}

	// A server that rejects the model fails the dial.
	if c, err := DialOptions("tcp", addr, Options{Tenant: "acme", Model: "wrong"}); err == nil {
		c.Close()
		t.Fatal("dial with rejected model succeeded")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != netfront.CodeBadRequest {
			t.Fatalf("rejected model: err = %v, want CodeBadRequest RemoteError", err)
		}
	}
}

// TestHedgedFirstReplyWins pins the hedging contract: when the first
// attempt stalls past Hedge.Delay a duplicate fires, the first reply to
// land wins, and the loser's late reply is silently dropped — the call
// delivers exactly one completion and the connection stays healthy for
// later requests.
func TestHedgedFirstReplyWins(t *testing.T) {
	var attempts atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		var stalled uint32
		for {
			_, body, ok := readReq(nc)
			if !ok {
				return
			}
			id := binary.LittleEndian.Uint32(body[0:4])
			switch attempts.Add(1) {
			case 1:
				// Stall the first attempt: no reply until the hedge won.
				stalled = id
			case 2:
				// The hedge: answer immediately, then release the stalled
				// first attempt with a DIFFERENT label — if the client ever
				// surfaced it, the winner assertion below would catch it.
				writeFrame(nc, netfront.FrameResult, resultFrame(id, 5))
				writeFrame(nc, netfront.FrameResult, resultFrame(stalled, 7))
			default:
				writeFrame(nc, netfront.FrameResult, resultFrame(id, 3))
			}
		}
	})
	c, err := DialOptions("tcp", addr, Options{
		Hedge: HedgePolicy{Delay: 10 * time.Millisecond, Max: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	label, err := c.Classify([]int16{1, 2, 3})
	if err != nil || label != 5 {
		t.Fatalf("hedged classify: label=%d err=%v, want the hedge's 5", label, err)
	}
	// The loser's late reply must have been dropped, not queued: a fresh
	// request gets a fresh answer.
	label, err = c.Classify([]int16{4})
	if err != nil || label != 3 {
		t.Fatalf("classify after hedge: label=%d err=%v, want 3", label, err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("server saw %d utterances, want 3 (two hedged + one plain)", n)
	}
}

// TestHedgedAttemptsBounded pins the hedge budget: a server that never
// answers sees at most 1+Max attempts for one call — the hedger stops
// firing once the budget is spent — and the call ends at its deadline.
func TestHedgedAttemptsBounded(t *testing.T) {
	var attempts atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			if _, _, ok := readReq(nc); !ok {
				return
			}
			attempts.Add(1)
		}
	})
	c, err := DialOptions("tcp", addr, Options{
		Hedge: HedgePolicy{Delay: 5 * time.Millisecond, Max: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ClassifyDeadline([]int16{1}, time.Now().Add(150*time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want exactly 1+Max = 3", n)
	}
	if c.cc == nil || !c.cc.alive() {
		t.Fatal("connection died after an abandoned hedged call")
	}
}

// TestRetryFloorsOnServerHint pins the satellite fix: the server's computed
// retry-after hint floors the retry backoff even when it exceeds the
// policy's Max — a 75ms hint against a 2ms cap must still hold the client
// off for the full 75ms.
func TestRetryFloorsOnServerHint(t *testing.T) {
	const hintMillis = 75
	var attempts atomic.Int32
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			_, body, ok := readReq(nc)
			if !ok {
				return
			}
			id := binary.LittleEndian.Uint32(body[0:4])
			if attempts.Add(1) == 1 {
				busy := binary.LittleEndian.AppendUint32(nil, id)
				busy = binary.LittleEndian.AppendUint32(busy, hintMillis)
				writeFrame(nc, netfront.FrameBusy, busy)
				continue
			}
			writeFrame(nc, netfront.FrameResult, resultFrame(id, 4))
		}
	})
	c, err := DialOptions("tcp", addr, Options{
		Retry: RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	label, err := c.Classify([]int16{9})
	if err != nil || label != 4 {
		t.Fatalf("classify: label=%d err=%v, want 4", label, err)
	}
	if elapsed := time.Since(start); elapsed < hintMillis*time.Millisecond {
		t.Fatalf("retry waited only %v; the %dms server hint must floor the 2ms policy cap", elapsed, hintMillis)
	}
}

// TestClientHealthQuery pins the FrameHealth admin round trip: the typed
// snapshot crosses the wire losslessly.
func TestClientHealthQuery(t *testing.T) {
	want := []core.ModelHealth{{
		Model:   "kws",
		Version: 7,
		Shards: []core.ShardStatus{
			{Shard: 0, State: core.BreakerClosed, Gen: 2, FailureRate: 0.25, Rebuilds: 1, Workers: 4, Live: 4},
			{Shard: 1, State: core.BreakerOpen, ConsecutiveFailures: 9, FailureRate: 1, Trips: 3, Workers: 4, Live: 0},
		},
	}}
	addr := fakeServer(t, func(nc net.Conn) {
		defer nc.Close()
		for {
			typ, body, ok := readReq(nc)
			if !ok {
				return
			}
			if typ != netfront.FrameHealth || len(body) != 4 {
				t.Errorf("server saw frame 0x%02x (%d bytes), want FrameHealth", typ, len(body))
				return
			}
			id := binary.LittleEndian.Uint32(body[0:4])
			writeFrame(nc, netfront.FrameHealthAck, netfront.AppendHealthAck(nil, id, want))
		}
	})
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Model != "kws" || got[0].Version != 7 || len(got[0].Shards) != 2 {
		t.Fatalf("health snapshot mangled: %+v", got)
	}
	for i, s := range got[0].Shards {
		w := want[0].Shards[i]
		if s.State != w.State || s.Gen != w.Gen || s.ConsecutiveFailures != w.ConsecutiveFailures ||
			s.Trips != w.Trips || s.Rebuilds != w.Rebuilds || s.Workers != w.Workers || s.Live != w.Live {
			t.Fatalf("shard %d mangled: got %+v want %+v", i, s, w)
		}
		if d := s.FailureRate - w.FailureRate; d > 0.01 || d < -0.01 {
			t.Fatalf("shard %d failure rate %v, want ~%v", i, s.FailureRate, w.FailureRate)
		}
	}
}

// TestWrongReplyFrameKillsConn: a request answered by another request's
// response frame — a hello or health ack under a one-shot's id, a result
// under a health query's — or by version 3's retired batch result (0x85)
// fails with ErrConnLost, and the generation is dead afterwards, so nothing
// later is misrouted on it.
func TestWrongReplyFrameKillsConn(t *testing.T) {
	classify := func(c *Client) error {
		_, err := c.Classify([]int16{1, 2, 3})
		return err
	}
	health := func(c *Client) error {
		_, err := c.Health()
		return err
	}
	cases := []struct {
		name    string
		call    func(c *Client) error
		typ     byte
		body    func(id uint32) []byte
		wantMsg string
	}{
		{"hello ack to a one-shot", classify, netfront.FrameHelloAck, func(id uint32) []byte {
			return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, id), 1)
		}, "frame 0x88 answered a request expecting 0x81"},
		{"health ack to a one-shot", classify, netfront.FrameHealthAck, func(id uint32) []byte {
			return netfront.AppendHealthAck(nil, id, nil)
		}, "frame 0x89 answered a request expecting 0x81"},
		{"result to a health query", health, netfront.FrameResult, func(id uint32) []byte {
			return resultFrame(id, 1)
		}, "frame 0x81 answered a request expecting 0x89"},
		{"retired batch result to a one-shot", classify, 0x85, func(id uint32) []byte {
			return binary.LittleEndian.AppendUint32(resultFrame(id, 1), 7)
		}, "unknown response frame 0x85"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeServer(t, func(nc net.Conn) {
				defer nc.Close()
				_, body, ok := readReq(nc)
				if !ok {
					return
				}
				writeFrame(nc, tc.typ, tc.body(binary.LittleEndian.Uint32(body[0:4])))
				readReq(nc) // hold the conn open until the client drops it
			})
			c, err := Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := tc.call(c); !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("err = %v, want ErrConnLost with %q", err, tc.wantMsg)
			}
			if err := tc.call(c); !errors.Is(err, ErrConnLost) {
				t.Fatalf("call on the dead generation: err = %v, want ErrConnLost", err)
			}
		})
	}
}
