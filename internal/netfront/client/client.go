// Package client is the Go client for the netfront wire protocol: it dials
// an omg-serve front end over TCP or a Unix socket and exposes the two
// request kinds — one-shot classification and open streams with per-hop
// result callbacks — over a single multiplexed connection. All methods are
// safe for concurrent use; any number of requests and streams may be
// outstanding at once, so a batch is one-shots issued from several
// goroutines and pipelined on the one connection.
//
// # Failure semantics
//
// The client is built for a flaky edge. Dials are bounded
// (Options.DialTimeout), one-shot requests accept deadlines
// (ClassifyDeadline) and opt into retry with exponential backoff plus
// jitter on BUSY and transient transport failures (Options.Retry), and a
// dropped connection is redialed with backoff on the next request when
// Options.Redial is set. One-shot requests can additionally hedge
// (Options.Hedge): a duplicate attempt fires when the first is slow, the
// first reply wins, and the loser is silently discarded — at most 1+Max
// attempts per call, never for streams. Server-side failures arrive as
// *RemoteError carrying the structured wire code and the server's
// retry-after hint.
// Streams are deliberately not resumed across a redial: a stream bound to a
// dead connection fails its callback once with ErrStreamBroken and its
// Close returns the same — the client never re-sends audio the server may
// already have classified, so a hop is never silently duplicated.
package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/pcm"
)

// ErrBusy reports that the server's submission queue was full when the
// request arrived — the wire form of core.ErrQueueFull backpressure. The
// request was not enqueued; retry later. The concrete error is a *BusyError
// carrying the server's retry-after hint; errors.Is(err, ErrBusy) matches
// it.
var ErrBusy = errors.New("client: server busy")

// ErrClosed is returned by requests after Close, or when the connection to
// the server was lost. The connection-loss form is ErrConnLost, which wraps
// ErrClosed and is retryable.
var ErrClosed = errors.New("client: connection closed")

// ErrConnLost reports that the transport died under an in-flight request
// (peer reset, write failure, mid-frame EOF). It wraps ErrClosed; unlike a
// user-initiated Close it is transient, so the retry policy treats it as
// retryable and Options.Redial replaces the connection.
var ErrConnLost = fmt.Errorf("%w: connection lost", ErrClosed)

// ErrStreamBroken reports a stream whose connection died before the stream
// was cleanly closed. The stream's callback receives it exactly once (with
// NoHop) and Stream.Close returns it. The stream is never transparently
// resumed on a redialed connection — hops already submitted must not be
// replayed — so the caller decides whether to open a fresh stream.
var ErrStreamBroken = errors.New("client: stream broken")

// ErrDeadlineExceeded reports a request that missed its client-side
// deadline: no reply arrived in time. The request may still complete on the
// server; its late reply is discarded.
var ErrDeadlineExceeded = errors.New("client: deadline exceeded")

// BusyError is the concrete BUSY failure: errors.Is(err, ErrBusy) matches
// it, and RetryAfter carries the server's backoff hint from the wire.
type BusyError struct {
	// RetryAfter is the server's suggested wait before retrying.
	RetryAfter time.Duration
}

// Error returns the BUSY message.
func (e *BusyError) Error() string { return ErrBusy.Error() }

// Is matches ErrBusy, so callers keep writing errors.Is(err, ErrBusy).
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// RemoteError is a per-request failure reported by the server.
type RemoteError struct {
	// Code is the structured wire error code (netfront.Code* constants).
	Code uint16
	// RetryAfter is the server's transient-failure hint: nonzero means the
	// request is worth retrying after this long, zero means it is not.
	RetryAfter time.Duration
	// Msg is the server's error text, verbatim from the wire.
	Msg string
}

// Error returns the server's message with its code.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("client: server error (code %d): %s", e.Code, e.Msg)
}

// Retryable reports whether the server marked the failure transient.
func (e *RemoteError) Retryable() bool { return e.RetryAfter > 0 }

// Frame types and encoding primitives are shared with package netfront —
// the protocol has exactly one definition.
const (
	frameUtterance    = netfront.FrameUtterance
	frameStreamOpen   = netfront.FrameStreamOpen
	frameStreamChunk  = netfront.FrameStreamChunk
	frameStreamClose  = netfront.FrameStreamClose
	frameResult       = netfront.FrameResult
	frameStreamResult = netfront.FrameStreamResult
	frameBusy         = netfront.FrameBusy
	frameError        = netfront.FrameError
	frameStreamClosed = netfront.FrameStreamClosed
	frameStreamError  = netfront.FrameStreamError
	frameHello        = netfront.FrameHello
	frameHelloAck     = netfront.FrameHelloAck
	frameHealth       = netfront.FrameHealth
	frameHealthAck    = netfront.FrameHealthAck
)

// NoHop is the hop value passed to a stream callback for a stream-level
// failure (a control-frame error or broken connection that is not tied to
// any single hop); a per-hop failure arrives with its real hop number
// instead.
const NoHop = ^uint64(0)

// DefaultDialTimeout bounds Dial when Options.DialTimeout is unset: a
// serving edge must fail fast on an unreachable peer, not park the caller
// in an unbounded connect.
const DefaultDialTimeout = 10 * time.Second

// RetryPolicy is the opt-in one-shot retry behavior: Attempts extra tries
// after the first, exponential backoff with deterministic jitter, honoring
// any larger server retry-after hint.
type RetryPolicy struct {
	// Attempts is how many retries follow a failed first try; 0 disables
	// retry entirely.
	Attempts int
	// Base is the first backoff step; doubles per attempt. <= 0 means 2ms.
	Base time.Duration
	// Max caps the backoff step. <= 0 means 250ms.
	Max time.Duration
}

// withDefaults fills unset policy knobs.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Base <= 0 {
		p.Base = 2 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 250 * time.Millisecond
	}
	return p
}

// backoff returns the attempt'th wait (0-based): exponential from Base,
// capped at Max, jittered uniformly into [d/2, d] so synchronized clients
// desynchronize.
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.Base << uint(attempt)
	if d > p.Max || d <= 0 {
		d = p.Max
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)/2+1))
}

// HedgePolicy opts one-shot requests into hedging: when an attempt has not
// completed within Delay, the client fires a duplicate of the same request
// on the same connection and takes whichever reply lands first, quietly
// discarding the loser. Hedging trades duplicate server work for tail
// latency — a request stuck behind a slow shard or a breaker probe is
// answered by a healthy one. It never applies to streams, and a call issues
// at most 1+Max attempts in total.
type HedgePolicy struct {
	// Delay is how long an attempt may run before the next hedge fires;
	// <= 0 disables hedging entirely.
	Delay time.Duration
	// Max caps extra attempts beyond the first; <= 0 means 1.
	Max int
}

// withDefaults fills unset hedge knobs.
func (h HedgePolicy) withDefaults() HedgePolicy {
	if h.Max <= 0 {
		h.Max = 1
	}
	return h
}

// Options parameterizes DialOptions. The zero value matches Dial: bounded
// dial, no retry, no redial.
type Options struct {
	// DialTimeout bounds each dial (initial and redial); 0 means
	// DefaultDialTimeout, negative means unbounded.
	DialTimeout time.Duration
	// Retry is the one-shot retry policy (Classify/ClassifyDeadline).
	// Zero-value = no retries.
	Retry RetryPolicy
	// Redial makes the client replace a dropped connection with a fresh
	// dial (with backoff) on the next request, instead of failing every
	// later request with ErrConnLost. Streams on the dead connection still
	// break (ErrStreamBroken) — only one-shot traffic migrates.
	Redial bool
	// RedialMax caps dial attempts per reconnection; <= 0 means 5.
	RedialMax int
	// Seed drives the deterministic jitter source; 0 means 1. Fixed seeds
	// keep chaos tests reproducible.
	Seed int64
	// DialFunc replaces the transport dial — the chaos-injection and test
	// hook (wrap the returned net.Conn in a faultconn.Conn to serve the
	// client a hostile network). nil means net.DialTimeout.
	DialFunc func(network, addr string) (net.Conn, error)
	// Tenant is the admission-control identity sent in the connection's
	// hello handshake (wire protocol v3): the server queues and
	// fair-shares this client's requests under it. Empty joins the default
	// tenant; with both Tenant and Model empty no hello is sent and the
	// connection behaves as a v2 peer.
	Tenant string
	// Model is the model id this connection's requests route to on a
	// multi-model server, bound by the hello handshake. Empty serves the
	// server's default model. A server that does not serve Model fails
	// the dial (and any redial) with *RemoteError CodeBadRequest.
	Model string
	// Hedge opts Classify/ClassifyDeadline into hedged requests: a
	// duplicate attempt after Hedge.Delay, first reply wins. Zero-value
	// (Delay == 0) disables hedging and keeps the single-attempt fast
	// path. Streams never hedge — a replayed stream hop could
	// double-classify audio.
	Hedge HedgePolicy
}

// reply is one response frame, pre-parsed.
type reply struct {
	typ     byte   // the response frame it came from; 0 for a failure
	label   int32  // FrameResult payload
	version uint64 // FrameHelloAck payload
	health  []core.ModelHealth
	err     error
}

// Stats is a snapshot of a client's lifetime resilience counters — how
// hard the client had to work beyond one wire attempt per request. The SLO
// harness (internal/loadgen) folds these into its reports; they are also
// the cheap way to assert "no retries happened" in tests.
type Stats struct {
	// Retries counts one-shot wire attempts beyond the first
	// (Classify/ClassifyDeadline retry loop iterations).
	Retries uint64
	// Redials counts replacement connections successfully established
	// after transport loss (Options.Redial).
	Redials uint64
	// Hedges counts hedge attempts launched beyond each request's first
	// attempt (Options.Hedge).
	Hedges uint64
	// Busy counts BUSY frames received from the server, across all
	// requests and attempts.
	Busy uint64
}

// Client is one logical connection to a netfront server. Under
// Options.Redial it survives transport loss by replacing the underlying
// connection; without it the first transport loss fails all later requests.
type Client struct {
	network, addr string
	opts          Options

	rmu sync.Mutex // guards rng (jitter draws come from many goroutines)
	rng *rand.Rand

	mu     sync.Mutex
	cc     *clientConn // current transport generation; nil only before dial
	closed bool

	version atomic.Uint64 // model version from the latest hello ack

	statRetries atomic.Uint64
	statRedials atomic.Uint64
	statHedges  atomic.Uint64
	statBusy    atomic.Uint64
}

// Stats snapshots the client's resilience counters. Safe to call
// concurrently with requests; the fields are read independently, so the
// snapshot is per-counter consistent, not globally atomic.
func (c *Client) Stats() Stats {
	return Stats{
		Retries: c.statRetries.Load(),
		Redials: c.statRedials.Load(),
		Hedges:  c.statHedges.Load(),
		Busy:    c.statBusy.Load(),
	}
}

// clientConn is one transport generation: the socket, its read loop, and
// the request/stream registries bound to it. A new generation after redial
// starts empty — pending work of the dead generation fails, it does not
// migrate.
type clientConn struct {
	owner *Client
	nc    net.Conn

	wmu  sync.Mutex
	wbuf []byte

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan reply // reply channel per in-flight request id
	streams map[uint32]*Stream
	err     error // terminal connection error, set once
	done    chan struct{}
}

// Dial connects to a netfront server with default Options; network/addr
// are as in net.Dial ("tcp", "127.0.0.1:7071" or "unix", "/tmp/omg.sock").
// The dial is bounded by DefaultDialTimeout.
func Dial(network, addr string) (*Client, error) {
	return DialOptions(network, addr, Options{})
}

// DialOptions connects with explicit resilience options. The initial dial
// is a single bounded attempt (an unreachable server fails fast, no silent
// retry loop); Redial governs later reconnection only.
func DialOptions(network, addr string, opts Options) (*Client, error) {
	if opts.DialTimeout == 0 {
		opts.DialTimeout = DefaultDialTimeout
	}
	if opts.RedialMax <= 0 {
		opts.RedialMax = 5
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{network: network, addr: addr, opts: opts, rng: rand.New(rand.NewSource(seed))}
	nc, err := c.dialRaw()
	if err != nil {
		return nil, err
	}
	c.cc = newClientConn(c, nc)
	if err := c.handshake(c.cc); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// handshake binds the generation to Options.Tenant/Model via FrameHello,
// bounded by the dial timeout. A no-op when neither option is set (v2
// behavior — servers predating the hello frame stay compatible).
func (c *Client) handshake(cc *clientConn) error {
	if c.opts.Tenant == "" && c.opts.Model == "" {
		return nil
	}
	var deadline time.Time
	if c.opts.DialTimeout > 0 {
		deadline = time.Now().Add(c.opts.DialTimeout)
	}
	bodyLen := 4 + 2 + len(c.opts.Tenant) + 2 + len(c.opts.Model)
	r, err := cc.call(frameHello, frameHelloAck, bodyLen, func(b []byte, id uint32) []byte {
		return netfront.AppendHello(b, id, c.opts.Tenant, c.opts.Model)
	}, deadline, HedgePolicy{})
	if err != nil {
		return err
	}
	c.version.Store(r.version)
	return nil
}

// ModelVersion returns the served model's version from the most recent
// hello acknowledgement — zero before any handshake (no Tenant/Model set)
// or against a single-server backend.
func (c *Client) ModelVersion() uint64 { return c.version.Load() }

// dialRaw performs one bounded transport dial via DialFunc or net.
func (c *Client) dialRaw() (net.Conn, error) {
	if c.opts.DialFunc != nil {
		return c.opts.DialFunc(c.network, c.addr)
	}
	if c.opts.DialTimeout < 0 {
		return net.Dial(c.network, c.addr)
	}
	return net.DialTimeout(c.network, c.addr, c.opts.DialTimeout)
}

// newClientConn wraps an established socket and starts its read loop.
func newClientConn(c *Client, nc net.Conn) *clientConn {
	cc := &clientConn{
		owner:   c,
		nc:      nc,
		pending: make(map[uint32]chan reply),
		streams: make(map[uint32]*Stream),
		done:    make(chan struct{}),
	}
	go cc.readLoop()
	return cc
}

// backoffSleep applies the attempt'th backoff of pol, bounded by deadline;
// it reports false when the deadline would pass before the wait ends.
func (c *Client) backoffSleep(pol RetryPolicy, attempt int, deadline time.Time, floor time.Duration) bool {
	c.rmu.Lock()
	d := pol.backoff(attempt, c.rng)
	c.rmu.Unlock()
	if floor > d {
		d = floor
	}
	if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
		return false
	}
	time.Sleep(d)
	return true
}

// Close tears down the client. Outstanding requests fail with ErrClosed;
// open streams stop receiving callbacks; no redial follows. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		cc := c.cc
		c.mu.Unlock()
		if cc != nil {
			<-cc.done
		}
		return nil
	}
	c.closed = true
	cc := c.cc
	c.mu.Unlock()
	if cc == nil {
		return nil
	}
	err := cc.nc.Close()
	<-cc.done // read loop has failed every pending request
	return err
}

// conn returns a live transport generation, redialing with backoff when
// the current one is dead and Options.Redial allows. deadline bounds the
// whole acquisition.
func (c *Client) conn(deadline time.Time) (*clientConn, error) {
	pol := c.opts.Retry.withDefaults()
	var lastErr error
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		cc := c.cc
		if cc != nil && cc.alive() {
			c.mu.Unlock()
			return cc, nil
		}
		if !c.opts.Redial {
			c.mu.Unlock()
			return nil, ErrConnLost
		}
		c.mu.Unlock()
		if attempt >= c.opts.RedialMax {
			if lastErr == nil {
				lastErr = ErrConnLost
			}
			return nil, lastErr
		}
		if attempt > 0 && !c.backoffSleep(pol, attempt-1, deadline, retryAfterHint(lastErr)) {
			return nil, ErrDeadlineExceeded
		}
		nc, err := c.dialRaw()
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		switch {
		case c.closed:
			c.mu.Unlock()
			nc.Close()
			return nil, ErrClosed
		case c.cc != nil && c.cc.alive():
			// A concurrent caller won the redial race; ride its conn.
			c.mu.Unlock()
			nc.Close()
		default:
			cc := newClientConn(c, nc)
			c.cc = cc
			c.mu.Unlock()
			c.statRedials.Add(1)
			// Re-bind tenant/model on the fresh generation. A server
			// rejection (unknown model) is terminal — redialing cannot
			// fix it; a transport failure just feeds the redial loop.
			if err := c.handshake(cc); err != nil {
				var re *RemoteError
				if errors.As(err, &re) {
					return nil, err
				}
				lastErr = err
			}
		}
	}
}

// isClosed reports a user-initiated Close.
func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// alive reports whether the generation's transport is still usable.
func (cc *clientConn) alive() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err == nil
}

// kill closes the socket so the read loop observes the failure and fails
// the generation exactly once.
func (cc *clientConn) kill() { cc.nc.Close() }

// fail terminates the generation: every pending request gets err, every
// stream breaks (one ErrStreamBroken callback, then its closed channel).
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
	}
	pending := make([]chan reply, 0, len(cc.pending))
	for id, ch := range cc.pending {
		delete(cc.pending, id)
		pending = append(pending, ch)
	}
	streams := make([]*Stream, 0, len(cc.streams))
	for id, s := range cc.streams {
		delete(cc.streams, id)
		streams = append(streams, s)
	}
	err = cc.err
	cc.mu.Unlock()
	for _, ch := range pending {
		ch <- reply{err: err}
	}
	for _, s := range streams {
		s.err = ErrStreamBroken
		if s.fn != nil {
			s.fn(NoHop, -1, ErrStreamBroken)
		}
		close(s.closed)
	}
	close(cc.done)
}

// readLoop dispatches response frames to their requests/streams until the
// transport dies, then fails the generation (ErrClosed on user Close,
// ErrConnLost otherwise — the retryable flavor).
func (cc *clientConn) readLoop() {
	var hdr [netfront.HeaderLen]byte
	var body []byte
	for {
		typ, b, err := netfront.ReadFrame(cc.nc, &hdr, body, netfront.DefaultMaxBody)
		body = b[:cap(b)]
		if err != nil {
			// An oversize frame header leaves the socket open but unread;
			// close it so a dead generation never pins its peer.
			cc.nc.Close()
			if cc.owner.isClosed() {
				cc.fail(ErrClosed)
			} else {
				cc.fail(ErrConnLost)
			}
			return
		}
		switch typ {
		case frameResult:
			if len(b) != 8 {
				cc.failProto("malformed result frame", len(b))
				return
			}
			id := binary.LittleEndian.Uint32(b[0:4])
			label := int32(binary.LittleEndian.Uint32(b[4:8]))
			cc.deliver(id, reply{typ: frameResult, label: label})
		case frameBusy:
			if len(b) != 8 {
				cc.failProto("malformed busy frame", len(b))
				return
			}
			id := binary.LittleEndian.Uint32(b[0:4])
			retry := time.Duration(binary.LittleEndian.Uint32(b[4:8])) * time.Millisecond
			cc.owner.statBusy.Add(1)
			cc.deliver(id, reply{err: &BusyError{RetryAfter: retry}})
		case frameError:
			if len(b) < 4 {
				cc.failProto("malformed error frame", len(b))
				return
			}
			id := binary.LittleEndian.Uint32(b[0:4])
			we, err := netfront.DecodeWireError(b[4:])
			if err != nil {
				cc.failProto("malformed wire error", len(b))
				return
			}
			rerr := &RemoteError{Code: we.Code, RetryAfter: we.RetryAfter, Msg: we.Msg}
			// A FrameError may belong to a stream (a control failure,
			// delivered via its callback as NoHop) or to a pending
			// request.
			cc.mu.Lock()
			s := cc.streams[id]
			cc.mu.Unlock()
			if s != nil {
				s.fn(NoHop, -1, rerr)
			} else {
				cc.deliver(id, reply{err: rerr})
			}
		case frameStreamError:
			if len(b) < 12 {
				cc.failProto("malformed stream error", len(b))
				return
			}
			id := binary.LittleEndian.Uint32(b[0:4])
			hop := binary.LittleEndian.Uint64(b[4:12])
			we, err := netfront.DecodeWireError(b[12:])
			if err != nil {
				cc.failProto("malformed stream wire error", len(b))
				return
			}
			cc.mu.Lock()
			s := cc.streams[id]
			cc.mu.Unlock()
			if s != nil {
				s.fn(hop, -1, &RemoteError{Code: we.Code, RetryAfter: we.RetryAfter, Msg: we.Msg})
			}
		case frameStreamResult:
			if len(b) != 16 {
				cc.failProto("malformed stream result", len(b))
				return
			}
			id := binary.LittleEndian.Uint32(b[0:4])
			hop := binary.LittleEndian.Uint64(b[4:12])
			label := int32(binary.LittleEndian.Uint32(b[12:16]))
			cc.mu.Lock()
			s := cc.streams[id]
			cc.mu.Unlock()
			if s != nil {
				s.fn(hop, int(label), nil)
			}
		case frameHelloAck:
			if len(b) != 12 {
				cc.failProto("malformed hello ack", len(b))
				return
			}
			id := binary.LittleEndian.Uint32(b[0:4])
			version := binary.LittleEndian.Uint64(b[4:12])
			cc.deliver(id, reply{typ: frameHelloAck, version: version})
		case frameHealthAck:
			id, models, err := netfront.DecodeHealthAck(b)
			if err != nil {
				cc.failProto("malformed health ack", len(b))
				return
			}
			cc.deliver(id, reply{typ: frameHealthAck, health: models})
		case frameStreamClosed:
			if len(b) != 12 {
				cc.failProto("malformed stream-closed frame", len(b))
				return
			}
			id := binary.LittleEndian.Uint32(b[0:4])
			hops := binary.LittleEndian.Uint64(b[4:12])
			cc.mu.Lock()
			s := cc.streams[id]
			delete(cc.streams, id)
			cc.mu.Unlock()
			if s != nil {
				s.hops = hops
				close(s.closed)
			}
		default:
			cc.failProto(fmt.Sprintf("unknown response frame 0x%02x", typ), len(b))
			return
		}
	}
}

// failProto fails the generation on a protocol violation by the server —
// the connection cannot resync, so it is dead.
func (cc *clientConn) failProto(what string, n int) {
	cc.nc.Close()
	cc.fail(fmt.Errorf("%w: %s (%d bytes)", ErrConnLost, what, n))
}

// deliver hands a reply to its pending request, if still registered (a
// request that timed out client-side deregisters itself; its late reply is
// dropped here).
func (cc *clientConn) deliver(id uint32, r reply) {
	cc.mu.Lock()
	ch := cc.pending[id]
	delete(cc.pending, id)
	cc.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// register allocates a request id whose reply is delivered on ch. Hedged
// attempts of one call share a channel, so the first completion wins
// whichever attempt produced it; ch must have capacity for every id that
// shares it — deliver and fail send without coordination.
func (cc *clientConn) register(ch chan reply) (uint32, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return 0, cc.err
	}
	id := cc.nextID
	cc.nextID++
	cc.pending[id] = ch
	return id, nil
}

// deregister abandons a pending request (client-side timeout): a reply
// arriving later is dropped by deliver.
func (cc *clientConn) deregister(id uint32) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// writeFrame builds and sends one frame; payload is appended by fill. A
// write failure kills the generation (the socket is closed so the read
// loop fails every pending request) and reports ErrConnLost.
func (cc *clientConn) writeFrame(typ byte, bodyLen int, fill func([]byte) []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.wbuf = netfront.AppendFrameHeader(cc.wbuf[:0], typ, bodyLen)
	cc.wbuf = fill(cc.wbuf)
	if _, err := cc.nc.Write(cc.wbuf); err != nil {
		cc.kill()
		return fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return nil
}

// call is every request's round trip: register on a reply channel, write
// the frame (fill appends the body, which starts with the request id), and
// wait for the reply, bounded by a nonzero deadline. A success must come
// from the response frame want; any other (a hello ack under a one-shot's
// id, say) is a server protocol violation that kills the generation and
// fails the call with ErrConnLost. With hedge.Delay > 0 a
// call is up to 1+hedge.Max wire attempts sharing one reply channel: the
// first immediately, each further one when the hedge delay elapses without
// a reply, or at once when every outstanding attempt has already failed.
// The first success wins; the losers are deregistered and their late
// replies dropped by deliver. Unhedged, it is one attempt and no hedge
// timer runs. No goroutine is spawned per hedge: one timer drives the
// schedule.
func (cc *clientConn) call(typ, want byte, bodyLen int, fill func(b []byte, id uint32) []byte, deadline time.Time, hedge HedgePolicy) (reply, error) {
	attempts := 1
	if hedge.Delay > 0 {
		attempts += hedge.Max
	}
	// The channel's capacity covers every attempt answering.
	ch := make(chan reply, attempts)
	ids := make([]uint32, 0, 4)
	launch := func() error {
		id, err := cc.register(ch)
		if err != nil {
			return err
		}
		err = cc.writeFrame(typ, bodyLen, func(b []byte) []byte { return fill(b, id) })
		if err != nil {
			cc.deregister(id)
			return err
		}
		if len(ids) > 0 {
			cc.owner.statHedges.Add(1)
		}
		ids = append(ids, id)
		return nil
	}
	abandon := func() {
		for _, id := range ids {
			cc.deregister(id)
		}
	}
	if err := launch(); err != nil {
		return reply{}, err
	}
	outstanding := 1
	var firstErr error
	var hedger *time.Timer
	var hedgeC <-chan time.Time
	if attempts > 1 {
		hedger = time.NewTimer(hedge.Delay)
		defer hedger.Stop()
		hedgeC = hedger.C
	}
	var deadlineC <-chan time.Time
	if !deadline.IsZero() {
		wait := time.Until(deadline)
		if wait <= 0 {
			abandon()
			return reply{}, ErrDeadlineExceeded
		}
		dt := time.NewTimer(wait)
		defer dt.Stop()
		deadlineC = dt.C
	}
	for {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				// First success wins. Deregister the losers so their late
				// replies are dropped (the winner's id is already gone —
				// deliver removed it — so this is loser-only cleanup).
				abandon()
				if r.typ != want {
					cc.kill()
					return reply{}, fmt.Errorf("%w: frame 0x%02x answered a request expecting 0x%02x", ErrConnLost, r.typ, want)
				}
				return r, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding > 0 {
				continue
			}
			// Every attempt so far failed: don't sit out the rest of the
			// hedge delay, spend remaining budget now or give up.
			if len(ids) >= attempts || launch() != nil {
				return reply{}, firstErr
			}
			outstanding++
		case <-hedgeC:
			if len(ids) < attempts {
				// A hedge whose write fails is a failed attempt: the
				// socket is dying, so the outstanding attempts are about
				// to fail through this same channel — no special path.
				if err := launch(); err == nil {
					outstanding++
				}
			}
			if len(ids) < attempts {
				hedger.Reset(hedge.Delay)
			}
		case <-deadlineC:
			abandon()
			return reply{}, ErrDeadlineExceeded
		}
	}
}

// classify runs one request, hedged per hedge, on this generation.
func (cc *clientConn) classify(samples []int16, deadline time.Time, hedge HedgePolicy) (int, error) {
	r, err := cc.call(frameUtterance, frameResult, 4+2*len(samples), func(b []byte, id uint32) []byte {
		b = binary.LittleEndian.AppendUint32(b, id)
		return pcm.Append(b, samples)
	}, deadline, hedge)
	if err != nil {
		return -1, err
	}
	return int(r.label), nil
}

// retryable reports whether err is worth retrying: backpressure, transport
// loss, or a server failure whose code (plus retry-after hint) marks it
// transient. The policy is code-aware, not hint-only: backpressure codes
// (BUSY, deadline shed, recovered panic) are structurally transient and
// retry even without a hint, while CodeUnavailable and CodeModelSwapped
// retry exactly when the server attached a retry-after hint — a draining
// server hints zero (redialing now is pointless), a hot swap hints the
// backoff to the new generation.
func retryable(err error) bool {
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrConnLost) {
		return true
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		return false
	}
	switch re.Code {
	case netfront.CodeBusy, netfront.CodeDeadlineExceeded, netfront.CodePanic:
		return true
	case netfront.CodeUnavailable, netfront.CodeModelSwapped:
		return re.RetryAfter > 0
	default:
		return re.Retryable()
	}
}

// retryAfterHint extracts the server's backoff hint, if any.
func retryAfterHint(err error) time.Duration {
	var be *BusyError
	if errors.As(err, &be) {
		return be.RetryAfter
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.RetryAfter
	}
	return 0
}

// Classify submits one utterance and blocks for its label, retrying per
// Options.Retry. ErrBusy reports server backpressure (nothing was
// enqueued); a *RemoteError is a per-request server-side failure.
func (c *Client) Classify(samples []int16) (int, error) {
	return c.ClassifyDeadline(samples, time.Time{})
}

// ClassifyDeadline is Classify bounded by a client-side deadline covering
// everything — queueing, inference, retries, and any redial. A zero
// deadline means unbounded. On timeout it returns ErrDeadlineExceeded and
// discards the late reply. Retries follow Options.Retry: exponential
// backoff with deterministic jitter, floored by the server's retry-after
// hint, on BUSY, transport loss and server failures flagged transient.
func (c *Client) ClassifyDeadline(samples []int16, deadline time.Time) (int, error) {
	pol := c.opts.Retry.withDefaults()
	hedge := c.opts.Hedge.withDefaults()
	for attempt := 0; ; attempt++ {
		cc, err := c.conn(deadline)
		if err != nil {
			return -1, err
		}
		label, err := cc.classify(samples, deadline, hedge)
		if err == nil {
			return label, nil
		}
		if attempt >= pol.Attempts || !retryable(err) || c.isClosed() {
			return -1, err
		}
		if !c.backoffSleep(pol, attempt, deadline, retryAfterHint(err)) {
			return -1, err
		}
		c.statRetries.Add(1)
	}
}

// Health queries the server's live shard-health snapshot (FrameHealth,
// wire v3): per model, the breaker state, generation, failure rate and
// rebuild count of every shard. Against a single-model server without a
// registry the reply is one synthesized always-closed pseudo-shard. Health
// does not retry; under Options.Redial it still migrates to a fresh
// connection when the old one died before the query.
func (c *Client) Health() ([]core.ModelHealth, error) {
	cc, err := c.conn(time.Time{})
	if err != nil {
		return nil, err
	}
	r, err := cc.call(frameHealth, frameHealthAck, 4, binary.LittleEndian.AppendUint32, time.Time{}, HedgePolicy{})
	if err != nil {
		return nil, err
	}
	return r.health, nil
}

// Stream is one open audio stream, bound to the transport generation that
// opened it. Send audio with Send; results arrive through the callback
// passed to OpenStream, in hop order. Close flushes. If the connection
// dies first, the callback fires once with ErrStreamBroken and Close
// returns it — the stream never migrates to a redialed connection.
type Stream struct {
	cc     *clientConn
	id     uint32
	fn     func(hop uint64, label int, err error)
	closed chan struct{}
	hops   uint64
	err    error // ErrStreamBroken when the conn died; set before closed closes
}

// OpenStream opens a stream on the connection. fn is invoked on the
// client's read goroutine once per completed hop, strictly in hop order —
// it must not block (it stalls every response on the connection) and must
// not call back into the client. A non-nil err in the callback reports a
// failure: a per-hop *RemoteError carries its real hop number (that hop
// produced no label), a stream-level failure carries NoHop — including the
// final ErrStreamBroken of a dead connection.
func (c *Client) OpenStream(fn func(hop uint64, label int, err error)) (*Stream, error) {
	cc, err := c.conn(time.Time{})
	if err != nil {
		return nil, err
	}
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return nil, cc.err
	}
	id := cc.nextID
	cc.nextID++
	s := &Stream{cc: cc, id: id, fn: fn, closed: make(chan struct{})}
	cc.streams[id] = s
	cc.mu.Unlock()
	err = cc.writeFrame(frameStreamOpen, 4, func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b, id)
	})
	if err != nil {
		cc.mu.Lock()
		delete(cc.streams, id)
		cc.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// Send appends a chunk of audio to the stream. Results for hops the chunk
// completes arrive asynchronously through the stream callback. After the
// stream's connection died Send reports ErrStreamBroken; after a clean
// Close it reports ErrClosed.
func (s *Stream) Send(chunk []int16) error {
	select {
	case <-s.closed:
		if s.err != nil {
			return s.err
		}
		return ErrClosed
	default:
	}
	return s.cc.writeFrame(frameStreamChunk, 4+2*len(chunk), func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, s.id)
		return pcm.Append(b, chunk)
	})
}

// Close flushes the stream — it blocks until the server has delivered every
// outstanding hop's result (all callbacks have run) — and returns the total
// number of hops the stream classified. A stream whose connection died
// returns ErrStreamBroken with the hop count unknown (zero).
func (s *Stream) Close() (uint64, error) {
	err := s.cc.writeFrame(frameStreamClose, 4, func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b, s.id)
	})
	if err != nil {
		// The write failed, so the conn is dead or dying: the read loop's
		// fail() will break the stream; wait so Close's result is settled.
		<-s.closed
		if s.err != nil {
			return 0, s.err
		}
		return 0, err
	}
	<-s.closed
	if s.err != nil {
		return 0, s.err
	}
	return s.hops, nil
}
