package netfront

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config parameterizes a FrontEnd.
type Config struct {
	// ReadIdleTimeout bounds how long a connection may go without
	// completing a frame before it is closed: the read-side twin of the
	// response-write bound, covering both silent peers (idle-connection
	// reaping) and peers that trickle a frame byte-by-byte (a slowloris
	// cannot pin the handler goroutine forever). 0 means DefaultReadIdleTimeout;
	// negative disables the deadline.
	ReadIdleTimeout time.Duration
	// MaxStreams caps concurrently open streams per connection, so one
	// peer cannot exhaust the box with per-stream state (each open stream
	// pins a dsp.Streamer plus a fingerprint-buffer pool). Opening beyond
	// the cap is a per-request CodeLimitExceeded error, not a connection
	// error. <= 0 means DefaultMaxStreams.
	MaxStreams int
	// DefaultModel is the model id served to connections that never send a
	// FrameHello (or hello with an empty model name). Only meaningful for
	// a registry front end (NewFrontEndRegistry); empty means the
	// registry's sole model when it serves exactly one, otherwise requests
	// without a hello-bound model fail with CodeBadRequest.
	DefaultModel string
}

// writeTimeout bounds every response write: generous for any live peer,
// finite for a stalled one. Completion callbacks run on core.Server worker
// goroutines, so a peer that stops reading would otherwise park workers in
// socket writes until the whole pool wedges — on timeout the connection is
// closed instead and the slow peer pays, not the pool.
const writeTimeout = 30 * time.Second

// DefaultReadIdleTimeout is the between-frame read bound when
// Config.ReadIdleTimeout is unset: generous for any live client (streams
// send continuously, one-shot callers several orders of magnitude faster),
// finite for an abandoned socket.
const DefaultReadIdleTimeout = 5 * time.Minute

// DefaultMaxStreams is the per-connection open-stream cap when
// Config.MaxStreams is unset.
const DefaultMaxStreams = 64

// busyRetryAfter is the retry hint carried by BUSY and other transient
// failures that compute none: long enough for a queue slot to open at
// typical service rates, short enough not to idle a loaded client.
const busyRetryAfter = 5 * time.Millisecond

// backend abstracts what a FrontEnd serves: a single core.Server
// (NewFrontEnd, (model, tenant) ignored) or a multi-model multi-tenant
// core.Registry (NewFrontEndRegistry). The conn handlers speak only this
// interface, so routing and admission live behind it.
type backend interface {
	// submit enqueues one one-shot classification without blocking the
	// read loop; backpressure surfaces as core.ErrQueueFull /
	// core.ErrTenantBusy.
	submit(model, tenant string, samples []int16, fn func(core.Result)) error
	// openStream opens a stream routed by (model, tenant).
	openStream(model, tenant string) (backendStream, error)
	// resolveModel validates a hello-supplied model name ("" = default)
	// and returns the bound name plus its current version.
	resolveModel(model string) (bound string, version uint64, err error)
	// health returns the backend's per-model, per-shard health snapshot
	// (the FrameHealth admin query).
	health() []core.ModelHealth
}

// backendStream is the stream face of a backend: what connStream needs
// from core.Stream / core.RegistryStream.
type backendStream interface {
	// OnResult switches the stream to in-hop-order callback delivery.
	OnResult(fn func(hop uint64, r core.Result))
	// Hops returns how many inference hops have been submitted.
	Hops() uint64
	// Submit advances the stream by one audio chunk.
	Submit(chunk []int16) ([]*core.Pending, error)
}

// serverBackend adapts one core.Server: the single-model single-queue
// serving shape netfront launched with. model and tenant are accepted and
// ignored (a hello naming a non-empty model is rejected at resolveModel).
type serverBackend struct {
	srv *core.Server
}

func (b serverBackend) submit(model, tenant string, samples []int16, fn func(core.Result)) error {
	return b.srv.TrySubmitFuncDeadline(samples, time.Time{}, fn)
}

func (b serverBackend) openStream(model, tenant string) (backendStream, error) {
	return b.srv.OpenStream()
}

func (b serverBackend) resolveModel(model string) (string, uint64, error) {
	if model != "" {
		return "", 0, core.ErrUnknownModel
	}
	return "", 0, nil
}

func (b serverBackend) health() []core.ModelHealth {
	// A bare server has no breakers; synthesize one always-closed pseudo
	// shard so the admin query still reports worker liveness.
	return []core.ModelHealth{{
		Shards: []core.ShardStatus{{
			State:   core.BreakerClosed,
			Workers: b.srv.Workers(),
			Live:    b.srv.LiveWorkers(),
		}},
	}}
}

// registryBackend adapts a core.Registry: hello-bound (model, tenant)
// select the registry entry and the admission queue.
type registryBackend struct {
	reg *core.Registry
	def string // default model for connections that never bind one
}

func (b registryBackend) bound(model string) string {
	if model == "" {
		return b.def
	}
	return model
}

func (b registryBackend) submit(model, tenant string, samples []int16, fn func(core.Result)) error {
	return b.reg.Submit(b.bound(model), tenant, samples, time.Time{}, fn)
}

func (b registryBackend) openStream(model, tenant string) (backendStream, error) {
	return b.reg.OpenStream(b.bound(model), tenant)
}

func (b registryBackend) resolveModel(model string) (string, uint64, error) {
	model = b.bound(model)
	v, ok := b.reg.ModelVersion(model)
	if !ok {
		return "", 0, core.ErrUnknownModel
	}
	return model, v, nil
}

func (b registryBackend) health() []core.ModelHealth { return b.reg.Health() }

// FrontEnd serves the netfront wire protocol over any net.Listener,
// multiplexing every connection onto one shared inference backend — a
// single core.Server (NewFrontEnd) or a multi-model core.Registry
// (NewFrontEndRegistry). Run Serve per listener (each blocks, like
// http.Serve), and Close to stop: Close closes the listeners and
// connections but not the backend, whose lifetime belongs to the caller.
type FrontEnd struct {
	be  backend
	cfg Config

	draining atomic.Bool // Shutdown in progress: stop accepting new streams

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewFrontEnd wraps one core.Server; the zero Config is ready to use.
// Connections get exactly the single-model semantics of wire protocol v2;
// a FrameHello naming a non-empty model is rejected with CodeBadRequest.
func NewFrontEnd(srv *core.Server, cfg Config) *FrontEnd {
	return newFrontEnd(serverBackend{srv: srv}, cfg)
}

// NewFrontEndRegistry wraps a core.Registry: connections route by their
// hello-bound (model, tenant), admission control is the registry's
// per-tenant weighted fair queueing, and hot swaps surface as
// CodeModelSwapped stream errors with a retry hint. Connections that never
// send a hello serve Config.DefaultModel (or the registry's sole model)
// under the default tenant ("").
func NewFrontEndRegistry(reg *core.Registry, cfg Config) *FrontEnd {
	def := cfg.DefaultModel
	if def == "" {
		if ids := reg.Models(); len(ids) == 1 {
			def = ids[0]
		}
	}
	return newFrontEnd(registryBackend{reg: reg, def: def}, cfg)
}

func newFrontEnd(be backend, cfg Config) *FrontEnd {
	if cfg.ReadIdleTimeout == 0 {
		cfg.ReadIdleTimeout = DefaultReadIdleTimeout
	}
	if cfg.MaxStreams <= 0 {
		cfg.MaxStreams = DefaultMaxStreams
	}
	return &FrontEnd{
		be:    be,
		cfg:   cfg,
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[*conn]struct{}),
	}
}

// ErrFrontEndClosed is returned by Serve after Close.
var ErrFrontEndClosed = errors.New("netfront: front end closed")

// Serve accepts connections on l until l fails or the front end is closed,
// handling each connection on its own goroutine. It always returns a
// non-nil error: ErrFrontEndClosed after Close, the accept error otherwise.
// Serve may be called concurrently for several listeners (e.g. one TCP, one
// Unix socket) sharing the same core server.
func (f *FrontEnd) Serve(l net.Listener) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		l.Close()
		return ErrFrontEndClosed
	}
	f.lns[l] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.lns, l)
		f.mu.Unlock()
		l.Close()
	}()
	var backoff time.Duration
	for {
		nc, err := l.Accept()
		if err != nil {
			f.mu.Lock()
			closed := f.closed
			f.mu.Unlock()
			if closed || f.draining.Load() {
				return ErrFrontEndClosed
			}
			// Transient accept failures (EMFILE under connection load,
			// ECONNABORTED) must not kill the listener for good: back off
			// and retry, as net/http does. Temporary is deprecated but
			// remains the only signal the net package offers for this.
			//nolint:staticcheck
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := newConn(f, nc)
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			nc.Close()
			return ErrFrontEndClosed
		}
		f.conns[c] = struct{}{}
		f.wg.Add(1)
		f.mu.Unlock()
		go func() {
			defer f.wg.Done()
			c.serve()
			f.mu.Lock()
			delete(f.conns, c)
			f.mu.Unlock()
		}()
	}
}

// Close stops the front end: listeners close (their Serve calls return),
// open connections close, and Close waits for every connection handler to
// exit. In-flight submissions still complete on the core server — their
// response writes fail harmlessly against the closed sockets. Idempotent.
func (f *FrontEnd) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	for l := range f.lns {
		l.Close()
	}
	for c := range f.conns {
		c.nc.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
	return nil
}

// ErrDrainTimeout is returned by Shutdown when the grace period expired
// with connections still busy; those connections were force-closed.
var ErrDrainTimeout = errors.New("netfront: drain deadline exceeded")

// Shutdown is the graceful form of Close: it stops accepting new
// connections and new stream opens immediately, then lets existing
// connections finish what they are doing — in-flight one-shots complete,
// open streams keep classifying until their peers close them —
// closing each connection as it goes quiet. Connections still busy when the
// grace period expires are force-closed and Shutdown returns
// ErrDrainTimeout; a clean drain returns nil. Either way, when Shutdown
// returns every connection handler has exited and later Serve calls return
// ErrFrontEndClosed. The core.Server is left to its owner (close it after
// Shutdown so drained submissions complete first). Concurrent with and
// idempotent against Close.
func (f *FrontEnd) Shutdown(grace time.Duration) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.draining.Store(true)
	for l := range f.lns {
		l.Close()
	}
	f.mu.Unlock()

	deadline := time.Now().Add(grace)
	drained := false
	for {
		f.mu.Lock()
		for c := range f.conns {
			if c.quiet() {
				// Closing the socket makes the conn's read loop exit and
				// deregister itself. A request racing this close sees a
				// dropped connection and must retry elsewhere — the
				// documented drain contract.
				c.nc.Close()
			}
		}
		n := len(f.conns)
		f.mu.Unlock()
		if n == 0 {
			drained = true
			break
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.Close()
	if !drained {
		return ErrDrainTimeout
	}
	return nil
}

// reqCtx is the pooled per-request state of the one-shot path: the sample
// buffer handed to the core server and the pre-bound completion callback
// that writes the response. Pooling both (and binding fn exactly once, at
// construction) is what makes the connection's steady-state
// read→decode→submit path allocation-free.
type reqCtx struct {
	c     *conn
	reqID uint32
	buf   []int16
	fn    func(core.Result)
}

// complete is the reqCtx's core.Server callback: write the response, then
// recycle the context. The in-flight decrement balances handleUtterance's
// increment — it must run exactly once per accepted submission, which the
// core server's exactly-once completion contract guarantees.
func (rc *reqCtx) complete(r core.Result) {
	if r.Err != nil {
		rc.c.writeError(rc.reqID, r.Err)
	} else {
		rc.c.writeResult(FrameResult, rc.reqID, int32(r.Label))
	}
	rc.c.inflight.Add(-1)
	rc.c.putReq(rc)
}

// connStream is one open stream multiplexed on a connection: the underlying
// core stream plus the flush accounting that lets FrameStreamClose wait for
// every submitted hop's result to reach the wire before acknowledging.
type connStream struct {
	st        backendStream
	buf       []int16 // chunk decode scratch (Submit does not retain it)
	submitted uint64  // hops handed to the core server (read-loop owned)
	delivered atomic.Uint64
	flush     chan struct{} // cap 1: callback → closer wakeup
}

// conn is one protocol connection. The read loop (serve) owns hdr/body and
// the decode scratch; response writes — from the read loop and from worker
// callbacks — serialize on wmu and build frames in wbuf.
type conn struct {
	fe *FrontEnd
	nc net.Conn

	hdr     [HeaderLen]byte
	body    []byte
	streams map[uint32]*connStream
	reqFree chan *reqCtx

	// Hello binding (read-loop owned): the tenant whose admission queue
	// this connection's requests join, and the model they route to.
	// Zero values mean the backend's defaults (v2 behavior).
	tenant string
	model  string

	// Drain accounting (Shutdown): inflight counts accepted one-shot
	// submissions whose responses have not been written; nstreams mirrors
	// len(streams) for goroutine-safe reads.
	inflight atomic.Int64
	nstreams atomic.Int32

	wmu  sync.Mutex
	wbuf []byte
}

// quiet reports whether the connection has no in-flight work and no open
// streams — the drain condition. Approximate by construction: a frame
// arriving between the check and the close loses the race and sees a
// dropped connection, which drain semantics allow.
func (c *conn) quiet() bool {
	return c.inflight.Load() == 0 && c.nstreams.Load() == 0
}

// reqPoolDepth bounds how many idle one-shot request contexts a connection
// keeps. Beyond it (more outstanding requests than the pool) contexts are
// allocated and dropped — correctness is unaffected, only allocation rate.
const reqPoolDepth = 64

func newConn(f *FrontEnd, nc net.Conn) *conn {
	return &conn{
		fe:      f,
		nc:      nc,
		streams: make(map[uint32]*connStream),
		reqFree: make(chan *reqCtx, reqPoolDepth),
	}
}

// getReq draws a pooled request context (allocating and binding its
// callback only on pool miss).
func (c *conn) getReq() *reqCtx {
	select {
	case rc := <-c.reqFree:
		return rc
	default:
		rc := &reqCtx{c: c}
		rc.fn = rc.complete
		return rc
	}
}

// putReq recycles a request context, dropping it when the pool is full.
func (c *conn) putReq(rc *reqCtx) {
	select {
	case c.reqFree <- rc:
	default:
	}
}

// serve is the connection's read loop: read one frame, decode, submit,
// repeat. It returns when the peer closes, a frame is malformed or
// oversized, or the front end shuts the socket. Stream results and one-shot
// results are written asynchronously by core worker callbacks; only BUSY
// and stream-control replies are written from this loop.
func (c *conn) serve() {
	defer c.nc.Close()
	for {
		// The idle deadline covers the whole frame read: a silent peer is
		// reaped, and a peer trickling one frame byte-by-byte cannot hold
		// the handler past the deadline either.
		if d := c.fe.cfg.ReadIdleTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		typ, body, err := ReadFrame(c.nc, &c.hdr, c.body, DefaultMaxBody)
		c.body = body[:cap(body)]
		if err != nil {
			// io.EOF between frames is the clean shutdown; everything else
			// (including a partial frame) just ends the connection — there
			// is no resync in a length-prefixed stream.
			return
		}
		switch typ {
		case FrameUtterance:
			if !c.handleUtterance(body) {
				return
			}
		case FrameStreamOpen:
			if !c.handleStreamOpen(body) {
				return
			}
		case FrameStreamChunk:
			if !c.handleStreamChunk(body) {
				return
			}
		case FrameStreamClose:
			if !c.handleStreamClose(body) {
				return
			}
		case FrameHello:
			if !c.handleHello(body) {
				return
			}
		case FrameHealth:
			if !c.handleHealth(body) {
				return
			}
		default:
			return // unknown frame type: protocol error
		}
	}
}

// handleUtterance submits a one-shot classification. A full queue is
// reported as FrameBusy (with the retry-after hint) instead of blocking the
// read loop — the wire face of core.ErrQueueFull backpressure.
func (c *conn) handleUtterance(body []byte) bool {
	reqID, rest, err := DecodeID(body)
	if err != nil {
		return false
	}
	rc := c.getReq()
	rc.reqID = reqID
	if rc.buf, err = decodeSamples(rc.buf, rest); err != nil {
		c.putReq(rc)
		return false
	}
	c.inflight.Add(1)
	switch err := c.fe.be.submit(c.model, c.tenant, rc.buf, rc.fn); {
	case err == nil:
		return true
	case errors.Is(err, core.ErrQueueFull), errors.Is(err, core.ErrTenantBusy):
		c.inflight.Add(-1)
		c.writeBusy(reqID, c.hintFor(err))
		c.putReq(rc)
		return true
	default:
		c.inflight.Add(-1)
		c.writeError(reqID, err)
		c.putReq(rc)
		return true
	}
}

// handleStreamOpen opens a stream under the peer's id. Reusing a live id,
// exceeding the per-connection stream cap, and opening during drain are
// per-request errors, not connection errors.
func (c *conn) handleStreamOpen(body []byte) bool {
	id, rest, err := DecodeID(body)
	if err != nil || len(rest) != 0 {
		return false
	}
	if _, live := c.streams[id]; live {
		c.writeErrorCode(id, CodeBadRequest, 0, "netfront: stream id already open")
		return true
	}
	if len(c.streams) >= c.fe.cfg.MaxStreams {
		c.writeErrorCode(id, CodeLimitExceeded, 0, "netfront: per-connection stream limit reached")
		return true
	}
	if c.fe.draining.Load() {
		c.writeErrorCode(id, CodeUnavailable, 0, "netfront: server draining")
		return true
	}
	st, err := c.fe.be.openStream(c.model, c.tenant)
	if err != nil {
		c.writeError(id, err)
		return true
	}
	cs := &connStream{st: st, flush: make(chan struct{}, 1)}
	st.OnResult(func(hop uint64, r core.Result) {
		if r.Err != nil {
			c.writeStreamError(id, hop, r.Err)
		} else {
			c.writeStreamResult(id, hop, int32(r.Label))
		}
		cs.delivered.Add(1)
		select {
		case cs.flush <- struct{}{}:
		default:
		}
	})
	c.streams[id] = cs
	c.nstreams.Store(int32(len(c.streams)))
	return true
}

// handleStreamChunk advances a stream. Unlike one-shot requests the submit
// may block — on the stream's fingerprint pool or the submission queue —
// which is the per-stream flow control: the peer cannot outrun its own
// results by more than the stream's buffer budget.
func (c *conn) handleStreamChunk(body []byte) bool {
	id, rest, err := DecodeID(body)
	if err != nil {
		return false
	}
	cs, ok := c.streams[id]
	if !ok {
		c.writeErrorCode(id, CodeBadRequest, 0, "netfront: chunk for unopened stream")
		return true
	}
	if cs.buf, err = decodeSamples(cs.buf, rest); err != nil {
		return false
	}
	before := cs.st.Hops()
	_, err = cs.st.Submit(cs.buf)
	cs.submitted += cs.st.Hops() - before
	if err != nil {
		c.writeError(id, err)
	}
	return true
}

// handleStreamClose flushes and closes a stream: it waits until every
// submitted hop's callback has written its result, then acknowledges with
// the total hop count so the peer knows exactly how many results to expect.
func (c *conn) handleStreamClose(body []byte) bool {
	id, rest, err := DecodeID(body)
	if err != nil || len(rest) != 0 {
		return false
	}
	cs, ok := c.streams[id]
	if !ok {
		c.writeErrorCode(id, CodeBadRequest, 0, "netfront: close for unopened stream")
		return true
	}
	for cs.delivered.Load() < cs.submitted {
		<-cs.flush
	}
	delete(c.streams, id)
	c.nstreams.Store(int32(len(c.streams)))
	c.writeResult64(FrameStreamClosed, id, cs.submitted)
	return true
}

// handleHello binds the connection to a (tenant, model) pair: later
// requests join that tenant's admission queue and route to that model. An
// unknown model is a per-request CodeBadRequest (the connection stays
// usable under its previous binding); success is acknowledged with the
// model's current version. A malformed hello closes the connection like
// any other unparseable frame.
func (c *conn) handleHello(body []byte) bool {
	id, tenant, model, err := DecodeHello(body)
	if err != nil {
		return false
	}
	bound, version, err := c.fe.be.resolveModel(model)
	if err != nil {
		c.writeError(id, err)
		return true
	}
	c.tenant = tenant
	c.model = bound
	c.writeResult64(FrameHelloAck, id, version)
	return true
}

// handleHealth answers the FrameHealth admin query with a FrameHealthAck
// carrying the backend's per-model, per-shard health snapshot. An admin
// path, not a hot path — the snapshot allocates.
func (c *conn) handleHealth(body []byte) bool {
	id, rest, err := DecodeID(body)
	if err != nil || len(rest) != 0 {
		return false
	}
	c.writeFrame(FrameHealthAck, AppendHealthAck(nil, id, c.fe.be.health()))
	return true
}

// send writes the assembled wbuf under a deadline; callers hold wmu. A
// failed or timed-out write closes the socket so every later write — and
// the read loop — fails fast instead of parking worker goroutines: workers
// must never be hostage to a peer that stopped reading.
func (c *conn) send() {
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := c.nc.Write(c.wbuf); err != nil {
		c.nc.Close()
	}
}

// writeFrame sends one frame built from payload under the write lock.
func (c *conn) writeFrame(typ byte, payload []byte) {
	c.wmu.Lock()
	c.wbuf = AppendFrameHeader(c.wbuf[:0], typ, len(payload))
	c.wbuf = append(c.wbuf, payload...)
	c.send()
	c.wmu.Unlock()
}

// writeBusy sends a FrameBusy carrying the given retry-after hint —
// computed from the backend's measured backlog when available,
// busyRetryAfter otherwise.
func (c *conn) writeBusy(id uint32, retryAfter time.Duration) {
	var p [8]byte
	binary.LittleEndian.PutUint32(p[0:4], id)
	binary.LittleEndian.PutUint32(p[4:8], uint32(retryAfter/time.Millisecond))
	c.writeFrame(FrameBusy, p[:])
}

// hintFor extracts the computed retry-after a core admission error carries
// (*core.TenantBusyError, *core.OverloadError), falling back to the
// busyRetryAfter constant — the pre-self-healing behavior.
func (c *conn) hintFor(err error) time.Duration {
	var tb *core.TenantBusyError
	if errors.As(err, &tb) && tb.RetryAfter > 0 {
		return tb.RetryAfter
	}
	var oe *core.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		return oe.RetryAfter
	}
	return busyRetryAfter
}

// writeResult sends an id + int32 frame (FrameResult).
func (c *conn) writeResult(typ byte, id uint32, v int32) {
	var p [8]byte
	binary.LittleEndian.PutUint32(p[0:4], id)
	binary.LittleEndian.PutUint32(p[4:8], uint32(v))
	c.writeFrame(typ, p[:])
}

// writeResult64 sends an id + uint64 frame (FrameStreamClosed).
func (c *conn) writeResult64(typ byte, id uint32, v uint64) {
	var p [12]byte
	binary.LittleEndian.PutUint32(p[0:4], id)
	binary.LittleEndian.PutUint64(p[4:12], v)
	c.writeFrame(typ, p[:])
}

// writeStreamResult sends one hop's result (FrameStreamResult).
func (c *conn) writeStreamResult(id uint32, hop uint64, label int32) {
	var p [16]byte
	binary.LittleEndian.PutUint32(p[0:4], id)
	binary.LittleEndian.PutUint64(p[4:12], hop)
	binary.LittleEndian.PutUint32(p[12:16], uint32(label))
	c.writeFrame(FrameStreamResult, p[:])
}

// codeFor maps a core-layer error onto its wire code and retry hint:
// transient failures (backpressure, shedding, a recovered panic) carry
// busyRetryAfter so clients back off instead of hammering; terminal
// ones carry zero.
func (c *conn) codeFor(err error) (code uint16, retryAfter time.Duration) {
	switch {
	case errors.Is(err, core.ErrQueueFull):
		return CodeBusy, busyRetryAfter
	case errors.Is(err, core.ErrDeadlineExceeded):
		return CodeDeadlineExceeded, busyRetryAfter
	case errors.Is(err, core.ErrWorkerPanic):
		return CodePanic, busyRetryAfter
	case errors.Is(err, core.ErrTenantBusy):
		return CodeBusy, c.hintFor(err)
	case errors.Is(err, core.ErrOverloaded):
		// The queue-delay controller shed this tenant for exceeding its
		// fair share: unavailable *to this tenant right now*, retryable
		// after the computed backlog-drain hint.
		return CodeUnavailable, c.hintFor(err)
	case errors.Is(err, core.ErrModelSwapped):
		// The generation this request was bound to is gone but its
		// successor is live: worth retrying after the hint.
		return CodeModelSwapped, busyRetryAfter
	case errors.Is(err, core.ErrUnknownModel):
		return CodeBadRequest, 0
	case errors.Is(err, core.ErrServerClosed), errors.Is(err, core.ErrRegistryClosed):
		return CodeUnavailable, 0
	default:
		return CodeInternal, 0
	}
}

// writeError sends a FrameError for err, classified via codeFor.
func (c *conn) writeError(id uint32, err error) {
	code, retry := c.codeFor(err)
	c.writeErrorCode(id, code, retry, err.Error())
}

// writeErrorCode sends a FrameError with an explicit structured payload.
func (c *conn) writeErrorCode(id uint32, code uint16, retryAfter time.Duration, msg string) {
	c.wmu.Lock()
	c.wbuf = AppendFrameHeader(c.wbuf[:0], FrameError, 4+wireErrLen+len(msg))
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, id)
	c.wbuf = AppendWireError(c.wbuf, WireError{Code: code, RetryAfter: retryAfter, Msg: msg})
	c.send()
	c.wmu.Unlock()
}

// writeStreamError sends a FrameStreamError: a per-hop failure that keeps
// its hop number, so the peer can tell exactly which result is missing
// from the hop sequence. The payload is structured like FrameError.
func (c *conn) writeStreamError(id uint32, hop uint64, err error) {
	code, retry := c.codeFor(err)
	msg := err.Error()
	c.wmu.Lock()
	c.wbuf = AppendFrameHeader(c.wbuf[:0], FrameStreamError, 12+wireErrLen+len(msg))
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, id)
	c.wbuf = binary.LittleEndian.AppendUint64(c.wbuf, hop)
	c.wbuf = AppendWireError(c.wbuf, WireError{Code: code, RetryAfter: retry, Msg: msg})
	c.send()
	c.wmu.Unlock()
}
