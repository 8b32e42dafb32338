// Persistent inference service: the host-throughput layer of the engine.
// Where KWSApp runs one utterance at a time inside a simulated enclave, a
// Server serves many utterances concurrently at host speed. It owns
// long-lived worker goroutines — each with a private interpreter over a
// weight-sharing model clone, a private DSP frontend and private scratch
// (pipeWorker) — fed by a buffered submission queue. Submissions are
// utterances (Submit and the callback forms; the worker extracts the
// fingerprint) or continuous audio (Stream.Submit over an open Stream,
// whose incremental dsp.Streamer pays one FFT per hop and submits a
// fingerprint-only job per completed window). Either way a worker takes one
// job per wakeup, runs it through one interpreter Invoke and finishes it
// through its one completion: a ticket (Pending), a stream hop or the
// caller's callback. The queue's bounded capacity is the backpressure
// mechanism.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsp"
	"repro/internal/tflm"
)

// ErrServerClosed is returned by submissions after Close. The contract is
// deterministic: every submission form — Submit, SubmitFuncDeadline,
// TrySubmitFuncDeadline, Stream.Submit — enqueues through one send, so once
// Close has been called each reports this error and never panics, however
// the call races Close (send holds a read-lock over the closed flag for the
// full channel send, so the queue cannot close under it).
var ErrServerClosed = errors.New("core: server closed")

// ErrQueueFull is returned by TrySubmitFuncDeadline when the submission
// queue is at capacity — the caller is being backpressured.
var ErrQueueFull = errors.New("core: submission queue full")

// ErrDeadlineExceeded completes a submission whose queue deadline passed
// before a worker dequeued it: the work is shed at dequeue — load-shedding —
// instead of wasting a worker on a result the caller has already given up
// on. The submission still completes exactly once (ticket resolves, callback
// fires) with this error as its Result.Err.
var ErrDeadlineExceeded = errors.New("core: queue deadline exceeded")

// ErrWorkerPanic is the error class a recovered inference panic completes
// its submission with (wrapped with the panic value). The panicking worker
// recovers, reports the failure through the job's normal completion path,
// and re-arms for the next job — the pool never shrinks.
var ErrWorkerPanic = errors.New("core: inference panicked")

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Queue is the submission-queue depth; <= 0 means 2×Workers. A full
	// queue blocks Submit and fails TrySubmitFuncDeadline, bounding the
	// memory a burst of submissions can pin.
	Queue int
	// Frontend configures feature extraction; the zero value means
	// dsp.DefaultFrontend().
	Frontend dsp.FrontendConfig
}

// Result is the outcome of one utterance.
type Result struct {
	// Label is the argmax class, or -1 when Err is set.
	Label int
	// Err reports a per-utterance failure; other utterances are unaffected.
	Err error
}

// pipeWorker is one worker's private execution state.
type pipeWorker struct {
	fe *dsp.Frontend
	ip *tflm.Interpreter
	fp []uint8 // fingerprint scratch, reused across utterances
}

// newPipeWorker builds one worker over a clone of model. The worker stages
// one int8 fingerprint into the model's only input and reads the label off
// its only output, so a model with more than one input or output tensor,
// an input that does not match the frontend's fingerprint geometry or a
// non-int8 output cannot be served.
func newPipeWorker(model *tflm.Model, feCfg dsp.FrontendConfig) (*pipeWorker, error) {
	ip, err := tflm.NewInterpreter(model.Clone())
	if err != nil {
		return nil, err
	}
	fe, err := dsp.NewFrontend(feCfg)
	if err != nil {
		return nil, err
	}
	if m := ip.Model(); len(m.Inputs) != 1 || len(m.Outputs) != 1 {
		return nil, fmt.Errorf("core: model has %d inputs and %d outputs, want one of each", len(m.Inputs), len(m.Outputs))
	}
	in, out := ip.Input(0), ip.Output(0)
	if in.Type != tflm.Int8 || in.NumElements() != feCfg.FingerprintLen() {
		return nil, fmt.Errorf("core: model input %s incompatible with %d-feature fingerprint", in, feCfg.FingerprintLen())
	}
	if out.Type != tflm.Int8 {
		return nil, fmt.Errorf("core: model output %s is not int8", out)
	}
	return &pipeWorker{
		fe: fe,
		ip: ip,
		fp: make([]uint8, feCfg.FingerprintLen()),
	}, nil
}

// runJob classifies one queued job with one Invoke: its fingerprint
// (extracted here for an utterance job, precomputed for a stream job) is
// staged into the interpreter's input and the label read off its output.
func (w *pipeWorker) runJob(j job) Result {
	fp := j.fp
	if fp == nil {
		w.fp = w.fe.ExtractInto(w.fp, j.samples)
		fp = w.fp
	}
	in := w.ip.Input(0).I8
	for i, f := range fp {
		in[i] = int8(int32(f) - 128)
	}
	if err := w.ip.Invoke(); err != nil {
		return Result{Label: -1, Err: err}
	}
	return Result{Label: tflm.ArgmaxI8(w.ip.Output(0).I8)}
}

// completer is how a queued job finishes: the worker calls complete exactly
// once per job, with the job's result — from inference, a deadline shed or
// a recovered panic. *Pending, a stream's *hopSlot and funcCompleter
// implement it.
type completer interface{ complete(Result) }

// funcCompleter adapts a caller's callback to a completer. A func value is
// pointer-shaped, so the conversion to the interface allocates nothing.
type funcCompleter func(Result)

func (f funcCompleter) complete(r Result) { f(r) }

// job is one unit of work on the queue. Exactly one of samples/fp describes
// the input; the worker hands the result to fin.
type job struct {
	samples []int16
	fp      []uint8 // precomputed fingerprint (stream path)
	// deadline, when nonzero, is the queue deadline: a worker that dequeues
	// the job after it completes the job with ErrDeadlineExceeded without
	// running inference.
	deadline time.Time
	fin      completer
}

// seqDelivery serializes one stream's result callbacks into hop order: the
// pool's workers complete hops out of order, so each finished hop's slot
// parks in pending until every earlier hop has fired. Callbacks run one at
// a time per stream, in submission order, on the worker that completed the
// next-due hop. They run outside the lock: a worker that finishes a hop
// while another worker is firing parks the slot for the firing worker and
// goes back to the queue instead of waiting out a callback (a socket
// write, for netfront) that is not its own. A slot goes back to its
// stream's free list only after its callback has fired, so pending never
// holds more than the stream's slots, and a stuck callback blocks
// Stream.Submit on the free list: a stream's submitter cannot outrun its
// own callbacks.
type seqDelivery struct {
	mu      sync.Mutex
	fn      func(hop uint64, r Result)
	next    uint64              // next hop sequence to deliver
	pending map[uint64]*hopSlot // finished hops waiting on earlier ones
	firing  bool                // a worker is running callbacks
	panics  *atomic.Uint64      // the server's Panics counter
}

// deliver files the finished slot h and, unless another worker is firing,
// fires every consecutively ready callback starting at next, recycling each
// slot once its callback has returned.
func (q *seqDelivery) deliver(h *hopSlot) {
	q.mu.Lock()
	if q.firing || h.hop != q.next {
		q.pending[h.hop] = h
		q.mu.Unlock()
		return
	}
	q.firing = true
	for ok := true; ok; {
		q.mu.Unlock()
		q.fire(h.res)
		h.free <- h
		q.mu.Lock()
		q.next++
		if h, ok = q.pending[q.next]; ok {
			delete(q.pending, q.next)
		}
	}
	q.firing = false
	q.mu.Unlock()
}

// fire runs the callback of hop next. A panic in it is recovered and
// counted here, per hop, so the stream still goes on to its later hops:
// left to the worker's guard, it would unwind deliver before next advanced
// and park every later hop for good.
func (q *seqDelivery) fire(r Result) {
	defer func() {
		if recover() != nil {
			q.panics.Add(1)
		}
	}()
	q.fn(q.next, r)
}

// Server is the persistent serving layer. Construct with NewServer, submit
// with Submit, SubmitFuncDeadline, TrySubmitFuncDeadline or an
// OpenStream'd Stream, and Close when done: Close drains all queued work,
// then stops the workers.
type Server struct {
	workers []*pipeWorker
	feCfg   dsp.FrontendConfig
	jobs    chan job

	mu     sync.RWMutex // guards closed vs. sends on jobs
	closed bool
	wg     sync.WaitGroup
	live   atomic.Int32 // running worker goroutines, for leak assertions

	panics     atomic.Uint64 // recovered worker panics (Panics)
	shed       atomic.Uint64 // jobs shed at dequeue past their deadline (Shed)
	panicQueue atomic.Int64  // pending injected panics (InjectPanic chaos hook)
}

// NewServer builds the worker pool over clones of model (constant weight
// tensors are shared, activations are private per worker) and starts its
// goroutines. It fails for a model the workers cannot serve (newPipeWorker):
// anything but one int8 input of fingerprint length and one int8 output.
func NewServer(model *tflm.Model, cfg ServerConfig) (*Server, error) {
	s, err := newServer(model, cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newServer is NewServer without starting the workers; tests use it to fill
// the queue deterministically before any draining begins.
func newServer(model *tflm.Model, cfg ServerConfig) (*Server, error) {
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	feCfg := cfg.Frontend
	if feCfg == (dsp.FrontendConfig{}) {
		feCfg = dsp.DefaultFrontend()
	}
	queue := cfg.Queue
	if queue <= 0 {
		queue = 2 * n
	}
	s := &Server{
		feCfg: feCfg,
		jobs:  make(chan job, queue),
	}
	for i := 0; i < n; i++ {
		w, err := newPipeWorker(model, feCfg)
		if err != nil {
			return nil, fmt.Errorf("core: server worker %d: %w", i, err)
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// start launches one goroutine per worker. Each loops on the shared queue
// until Close closes it, taking one job per wakeup, so no per-call goroutine
// spawn or WaitGroup churn remains on the serving path and a job's
// completion never waits on another job's inference.
//
// Fault isolation: inference runs under a recover guard — a panic (model
// bug, hostile input, injected chaos) completes that job with
// ErrWorkerPanic through the normal completion path and the worker loops on,
// so the pool never shrinks and no accepted submission is lost. A job whose
// queue deadline passed is shed at dequeue with ErrDeadlineExceeded before
// any inference work is spent on it.
func (s *Server) start() {
	for _, w := range s.workers {
		s.wg.Add(1)
		s.live.Add(1)
		go func(w *pipeWorker) {
			defer s.wg.Done()
			defer s.live.Add(-1)
			for j := range s.jobs {
				if !j.deadline.IsZero() && time.Now().After(j.deadline) {
					s.shed.Add(1)
					s.finish(j, Result{Label: -1, Err: ErrDeadlineExceeded})
					continue
				}
				s.finish(j, s.guard(w, j))
			}
		}(w)
	}
}

// guard runs j on w with panic isolation: a recovered panic is counted and
// becomes the job's ErrWorkerPanic result. The injected-panic hook fires
// inside the guard so chaos tests exercise the real recovery path.
func (s *Server) guard(w *pipeWorker, j job) (r Result) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			r = Result{Label: -1, Err: fmt.Errorf("%w: %v", ErrWorkerPanic, p)}
		}
	}()
	if s.takeInjectedPanic() {
		panic("injected chaos panic (Server.InjectPanic)")
	}
	return w.runJob(j)
}

// finish completes j with r. A panicking completion callback must not take
// down the worker: callbacks are documented not to panic, but a hostile one
// is isolated and counted like a panicking inference.
func (s *Server) finish(j job, r Result) {
	defer func() {
		if recover() != nil {
			s.panics.Add(1)
		}
	}()
	j.fin.complete(r)
}

// takeInjectedPanic consumes one pending injected panic, if any.
func (s *Server) takeInjectedPanic() bool {
	for {
		n := s.panicQueue.Load()
		if n <= 0 {
			return false
		}
		if s.panicQueue.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// InjectPanic arms the chaos hook: the next job any worker dequeues panics
// mid-inference. The panic is recovered by the worker's guard — the job
// completes with ErrWorkerPanic and the pool stays at full strength — which
// is exactly what the fault-matrix tests assert. Calling n times arms n
// panics. Safe for concurrent use; a no-op burden on the serving path (one
// atomic load per job).
func (s *Server) InjectPanic() { s.panicQueue.Add(1) }

// Panics returns how many worker panics have been recovered over the
// server's lifetime (inference panics and panicking completion callbacks,
// including injected ones) — an observability counter for health checks and
// chaos tests.
func (s *Server) Panics() uint64 { return s.panics.Load() }

// Shed returns how many submissions were shed at dequeue because their
// queue deadline had passed.
func (s *Server) Shed() uint64 { return s.shed.Load() }

// Workers returns the pool size.
func (s *Server) Workers() int { return len(s.workers) }

// QueueDepth returns the submission-queue capacity.
func (s *Server) QueueDepth() int { return cap(s.jobs) }

// LiveWorkers returns the number of worker goroutines currently running: 0
// after Close returns, Workers() while the server is healthy. Because
// workers recover panics and re-arm, a healthy server's LiveWorkers never
// drops below Workers — health checks and the fault-matrix tests assert
// exactly that.
func (s *Server) LiveWorkers() int { return int(s.live.Load()) }

// send enqueues a job unless the server is closed. With block=false a full
// queue returns ErrQueueFull instead of waiting.
func (s *Server) send(j job, block bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrServerClosed
	}
	if block {
		s.jobs <- j
		return nil
	}
	select {
	case s.jobs <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// Pending is a submission ticket. Wait blocks until the worker has produced
// the result and may be called repeatedly; waiting tickets in submission
// order yields results in submission order. A caller that is done with a
// ticket may Release it back to the shared freelist, making the steady-state
// submission path allocation-free.
type Pending struct {
	res      Result
	done     chan struct{}
	received bool
}

// pendingPool recycles tickets (struct + completion channel) across
// submissions; Submit and Stream.Submit draw from it and Release returns
// to it.
var pendingPool = sync.Pool{New: func() any {
	return &Pending{done: make(chan struct{}, 1)}
}}

// newPending draws a recycled ticket and resets it for a fresh submission.
func newPending() *Pending {
	p := pendingPool.Get().(*Pending)
	p.res = Result{}
	p.received = false
	return p
}

// complete stores the worker's result and signals Wait.
func (p *Pending) complete(r Result) {
	p.res = r
	p.done <- struct{}{}
}

// Wait returns the submission's result, blocking until it is ready.
func (p *Pending) Wait() Result {
	if !p.received {
		<-p.done
		p.received = true
	}
	return p.res
}

// Release waits for the result if necessary and returns the ticket to the
// freelist. The ticket must not be used afterwards. Release is optional:
// an un-released ticket is simply garbage collected.
func (p *Pending) Release() {
	p.Wait() // the worker's completion signal must be consumed before reuse
	pendingPool.Put(p)
}

// Submit enqueues one utterance, blocking while the queue is full, and
// returns its ticket. After Close it returns ErrServerClosed (never
// panics); see ErrServerClosed for the full after-Close contract.
func (s *Server) Submit(samples []int16) (*Pending, error) {
	p := newPending()
	if err := s.send(job{samples: samples, fin: p}, true); err != nil {
		pendingPool.Put(p)
		return nil, err
	}
	return p, nil
}

// SubmitFuncDeadline enqueues one utterance, blocking while the queue is
// full, and invokes fn exactly once with the result when a worker completes
// it. A nonzero deadline is a queue deadline: a submission still queued
// past it is shed at dequeue and fn fires with ErrDeadlineExceeded instead
// of occupying a worker; inference that has already started is never
// abandoned. This is the Registry dispatcher's submission path — fairness
// is decided upstream by the admission layer, so backpressure here is
// blocking, not BUSY.
//
// The callback runs on a worker goroutine: it must not block for long (it
// stalls that worker) and must not submit back into the same server (a full
// queue would deadlock the pool). There is nothing to Release, and the
// steady-state callback path is allocation-free.
func (s *Server) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	return s.send(job{samples: samples, deadline: deadline, fin: funcCompleter(fn)}, true)
}

// TrySubmitFuncDeadline is SubmitFuncDeadline that fails with ErrQueueFull
// instead of blocking when the queue is at capacity — the callback-path
// face of backpressure, which network front ends map to an explicit BUSY
// reply. Its deadline shedding is the front end's load-shedding path: stale
// requests stop costing workers the moment the queue backs up past their
// patience.
func (s *Server) TrySubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	return s.send(job{samples: samples, deadline: deadline, fin: funcCompleter(fn)}, false)
}

// Close marks the server closed, drains all queued work, and waits for the
// workers to exit. The drain contract: every submission accepted before
// Close completes — tickets obtained before Close all resolve, and every
// accepted callback (…FuncDeadline submissions, OnResult streams) has fired by the time
// Close returns. Work never accepted (a send that observed the closed flag)
// reports ErrServerClosed to its submitter instead; no accepted callback is
// silently dropped. A Stream.Submit racing Close either gets its remaining
// hops in before the flag flips (they drain) or gets ErrServerClosed for
// the rest of the chunk — it never deadlocks, because sends hold the
// read-lock for the full channel send, so the queue cannot close under a
// blocked sender while the still-running workers drain it. Close is
// idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
}

// streamScratch is how many hop slots a Stream owns: the queue depth plus
// one per worker plus one. A worker holds at most one job, so that is
// exactly enough to keep the queue full while every worker runs a hop and
// one more fingerprint is being assembled.
func (s *Server) streamScratch() int { return cap(s.jobs) + len(s.workers) + 1 }

// Stream is one continuous audio source multiplexed onto a Server: it owns
// an incremental dsp.Streamer (one FFT per hop) and a fixed set of hop
// slots that recycle through the workers, so steady-state streaming
// allocates only the returned tickets. A Stream is not goroutine-safe — it
// models a single microphone; open one per source.
type Stream struct {
	srv  *Server
	st   *dsp.Streamer
	free chan *hopSlot
	// hops is the next hop sequence to assign; sq, set by OnResult,
	// reorders worker completions back into hop order.
	hops uint64
	sq   *seqDelivery
}

// hopSlot is one stream hop in flight and its completion: it owns a
// fingerprint buffer, and delivers the hop's result to its ticket p or, in
// OnResult mode, to the stream's sequencer sq.
type hopSlot struct {
	free chan *hopSlot
	fp   []uint8
	hop  uint64
	p    *Pending
	sq   *seqDelivery
	res  Result // the hop's result while the slot waits in sq
}

// complete delivers r. A ticket hop returns its slot to the stream's free
// list first (p is read before: the stream may reuse the slot at once); an
// OnResult hop hands the slot to the sequencer, which recycles it after
// the callback has fired.
func (h *hopSlot) complete(r Result) {
	if h.sq != nil {
		h.res = r
		h.sq.deliver(h)
		return
	}
	p := h.p
	h.free <- h
	p.complete(r)
}

// OpenStream creates a stream over a private frontend with the server's
// geometry.
func (s *Server) OpenStream() (*Stream, error) {
	fe, err := dsp.NewFrontend(s.feCfg)
	if err != nil {
		return nil, err
	}
	st := &Stream{
		srv:  s,
		st:   dsp.NewStreamer(fe),
		free: make(chan *hopSlot, s.streamScratch()),
	}
	for i := 0; i < cap(st.free); i++ {
		st.free <- &hopSlot{free: st.free, fp: make([]uint8, s.feCfg.FingerprintLen())}
	}
	return st, nil
}

// Streamer exposes the underlying incremental extractor (warm-up state,
// frame accounting).
func (st *Stream) Streamer() *dsp.Streamer { return st.st }

// Hops returns how many inference hops Submit has submitted for this stream
// so far — the difference across a Submit call is how many hops that call
// accepted. Like all Stream methods it is single-goroutine
// state; concurrent callbacks do not change it.
func (st *Stream) Hops() uint64 { return st.hops }

// OnResult switches the stream from ticket polling to callback delivery:
// every subsequent Submit call submits its hops as callback jobs and
// returns no tickets, and fn is invoked once per hop with the hop's sequence
// number (0-based, counting every inference hop submitted since OpenStream)
// and its Result. Callbacks for
// one stream fire strictly in hop order, serialized, even though the pool's
// workers complete them out of order; hops of different streams are
// unordered relative to each other. fn runs on worker goroutines, one call
// at a time per stream — it must not block for long and must not submit
// back into the same server. A hop's slot stays in flight until its
// callback has returned, so a slow callback throttles Submit: the stream
// never runs more than its slots ahead of its own callbacks.
//
// Drain contract: Server.Close processes every hop accepted before it, so
// after Close returns every accepted hop's callback has fired. A panic in
// fn is recovered per hop and counted in Server.Panics; the stream goes on
// to the next hop. A fn of nil panics; OnResult must be called before the first Submit whose callbacks
// it should receive and cannot be un-set (the stream is single-goroutine
// state, so "before the next Submit" is well defined).
func (st *Stream) OnResult(fn func(hop uint64, r Result)) {
	if fn == nil {
		panic("core: Stream.OnResult(nil)")
	}
	st.sq = &seqDelivery{fn: fn, next: st.hops, pending: make(map[uint64]*hopSlot), panics: &st.srv.panics}
}

// Submit advances the stream by chunk on the server that opened it and
// submits one inference per newly completed hop once the stream is warm (a
// full fingerprint window observed), returning the tickets in hop order —
// or, after OnResult, no tickets: each hop's result is then delivered
// through the stream's callback in hop order. When all of the stream's hop
// slots are in flight (an OnResult hop's until its callback has returned)
// it waits for a worker to recycle one — the streaming face of queue
// backpressure. On error (ErrServerClosed mid-chunk) the
// already submitted hops are unaffected — their tickets are
// returned/callbacks still fire — and the remainder of the chunk is
// dropped; Submit never leaves a hop half-submitted.
func (st *Stream) Submit(chunk []int16) ([]*Pending, error) {
	var tickets []*Pending
	for len(chunk) > 0 {
		n := min(st.st.NeedSamples(), len(chunk))
		completed := st.st.Push(chunk[:n])
		chunk = chunk[n:]
		if completed == 0 || !st.st.Ready() {
			continue
		}
		h := <-st.free
		h.fp = st.st.Fingerprint(h.fp)
		// p stays local: a worker may complete and recycle h before send
		// returns.
		var p *Pending
		if st.sq == nil {
			p = newPending()
		}
		h.hop, h.p, h.sq = st.hops, p, st.sq
		if err := st.srv.send(job{fp: h.fp, fin: h}, true); err != nil {
			st.free <- h
			if p != nil {
				pendingPool.Put(p)
			}
			return tickets, err
		}
		st.hops++
		if p != nil {
			tickets = append(tickets, p)
		}
	}
	return tickets, nil
}
