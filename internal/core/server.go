// Persistent inference service: the host-throughput layer of the engine.
// Where KWSApp runs one utterance at a time inside a simulated enclave, a
// Server serves many utterances concurrently at host speed. It owns
// long-lived worker goroutines — each with a private interpreter over a
// weight-sharing model clone, a private DSP frontend and private scratch
// (pipeWorker) — fed by a buffered submission queue. Submissions are
// utterances (Submit, the callback forms and RunBatch; the worker extracts
// the fingerprint) or continuous audio (Stream.Submit over an open Stream,
// whose incremental dsp.Streamer pays one FFT per hop and submits a
// fingerprint-only job per completed window). Either way a worker runs
// every job it dequeues through the interpreter's planned InvokeBatch, a
// lone job as a batch of one, together with whatever backlog it drains,
// and finishes each job through its one completion: a ticket (Pending), a
// stream hop or the caller's callback. The queue's bounded capacity is the
// backpressure mechanism.
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
// TrySubmitFuncDeadline, Stream.Submit, RunBatch (per utterance) — enqueues
// through one send, so once Close has been called each reports this error
// and never panics, however the call races Close (send holds a read-lock
// over the closed flag for the full channel send, so the queue cannot close
// under it).
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
	// MaxBatch caps how many queued utterances a worker drains into one
	// planned tflm.InvokeBatch call when the queue is backed up; a lone
	// job runs as a batch of one. <= 0 means the default of 8; 1 runs
	// exactly one job per InvokeBatch call.
	MaxBatch int
	// Frontend configures feature extraction; the zero value means
	// dsp.DefaultFrontend().
	Frontend dsp.FrontendConfig
}

// defaultMaxBatch is the queue-drain batching depth when the config leaves
// MaxBatch unset.
const defaultMaxBatch = 8

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
	// batch is the job staging area for queue draining: its capacity is
	// the planned InvokeBatch depth. res[i] is batch[i]'s result.
	batch []job
	res   []Result
}

// newPipeWorker builds one worker over a clone of model, validating that the
// model input matches the frontend's fingerprint geometry, and plans the
// interpreter's stacked InvokeBatch path at maxBatch — the worker's only
// execution path, so a model PlanBatch rejects (more than one input or
// output tensor, non-int8 output) cannot be served.
func newPipeWorker(model *tflm.Model, feCfg dsp.FrontendConfig, maxBatch int) (*pipeWorker, error) {
	ip, err := tflm.NewInterpreter(model.Clone())
	if err != nil {
		return nil, err
	}
	fe, err := dsp.NewFrontend(feCfg)
	if err != nil {
		return nil, err
	}
	in := ip.Input(0)
	if in.Type != tflm.Int8 || in.NumElements() != feCfg.FingerprintLen() {
		return nil, fmt.Errorf("core: model input %s incompatible with %d-feature fingerprint", in, feCfg.FingerprintLen())
	}
	if err := ip.PlanBatch(maxBatch); err != nil {
		return nil, err
	}
	return &pipeWorker{
		fe:    fe,
		ip:    ip,
		fp:    make([]uint8, feCfg.FingerprintLen()),
		batch: make([]job, 0, maxBatch),
		res:   make([]Result, maxBatch),
	}, nil
}

// runJobs classifies a drained batch of queued jobs — a lone job is a batch
// of one — through the planned InvokeBatch path: each job's fingerprint
// (extracted here for utterance jobs, precomputed for stream jobs) is staged
// into the interpreter's stacked input slab, one InvokeBatch covers all of
// them, and the results land in w.res, one per job.
func (w *pipeWorker) runJobs(jobs []job) {
	for j := range jobs {
		fp := jobs[j].fp
		if fp == nil {
			w.fp = w.fe.ExtractInto(w.fp, jobs[j].samples)
			fp = w.fp
		}
		in := w.ip.BatchInput(j)
		for i, f := range fp {
			in[i] = int8(int32(f) - 128)
		}
	}
	err := w.ip.InvokeBatch(len(jobs))
	for j := range jobs {
		if err != nil {
			w.res[j] = Result{Label: -1, Err: err}
		} else {
			w.res[j] = Result{Label: tflm.ArgmaxI8(w.ip.BatchOutput(j))}
		}
	}
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
// pool's workers complete hops out of order, so each finished hop's result
// parks in pending until every earlier hop has fired. Callbacks run under
// the sequencer lock — one at a time per stream, in submission order — on
// whichever worker goroutine completed the next-due hop.
type seqDelivery struct {
	mu      sync.Mutex
	fn      func(hop uint64, r Result)
	next    uint64            // next hop sequence to deliver
	pending map[uint64]Result // finished hops waiting on earlier ones
	panics  *atomic.Uint64    // the server's Panics counter
}

// deliver files hop's result and fires every consecutively ready callback
// starting at next.
func (q *seqDelivery) deliver(hop uint64, r Result) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if hop != q.next {
		q.pending[hop] = r
		return
	}
	for ok := true; ok; {
		q.fire(r)
		q.next++
		if r, ok = q.pending[q.next]; ok {
			delete(q.pending, q.next)
		}
	}
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
// with Submit, SubmitFuncDeadline, TrySubmitFuncDeadline, RunBatch or an
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
// goroutines. It fails for a model whose input does not match the
// frontend's fingerprint or that tflm's PlanBatch cannot plan.
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
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = defaultMaxBatch
	}
	s := &Server{
		feCfg: feCfg,
		jobs:  make(chan job, queue),
	}
	for i := 0; i < n; i++ {
		w, err := newPipeWorker(model, feCfg, maxBatch)
		if err != nil {
			return nil, fmt.Errorf("core: server worker %d: %w", i, err)
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// start launches one goroutine per worker. Each loops on the shared queue
// until Close closes it, so no per-call goroutine spawn or WaitGroup churn
// remains on the serving path. Every dequeued job runs through one
// tflm.InvokeBatch call: when the queue is backed up a worker drains up to
// its planned batch capacity into that call, and a lone job is a batch of
// one.
//
// Fault isolation: inference runs under a recover guard — a panic (model
// bug, hostile input, injected chaos) completes every job of the batch with
// ErrWorkerPanic through the normal completion path and the worker loops on,
// so the pool never shrinks and no accepted submission is lost. Jobs whose
// queue deadline passed are shed at dequeue with ErrDeadlineExceeded before
// any inference work is spent on them.
func (s *Server) start() {
	for _, w := range s.workers {
		s.wg.Add(1)
		s.live.Add(1)
		go func(w *pipeWorker) {
			defer s.wg.Done()
			defer s.live.Add(-1)
			// guard runs fn with panic isolation: a recovered panic is
			// returned as an ErrWorkerPanic for the caller to write into the
			// affected results. The injected-panic hook fires inside the
			// guard so chaos tests exercise the real recovery path.
			guard := func(fn func()) (err error) {
				defer func() {
					if r := recover(); r != nil {
						s.panics.Add(1)
						err = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
					}
				}()
				if s.takeInjectedPanic() {
					panic("injected chaos panic (Server.InjectPanic)")
				}
				fn()
				return nil
			}
			finish := func(j job, r Result) {
				// A panicking completion callback must not take down the
				// worker (or strand the rest of a drained batch): callbacks
				// are documented not to panic, but a hostile one is isolated
				// like a panicking inference.
				defer func() {
					if recover() != nil {
						s.panics.Add(1)
					}
				}()
				j.fin.complete(r)
			}
			// shed completes an expired job without running it; reports
			// whether the job was shed.
			shed := func(j job) bool {
				if j.deadline.IsZero() || !time.Now().After(j.deadline) {
					return false
				}
				s.shed.Add(1)
				finish(j, Result{Label: -1, Err: ErrDeadlineExceeded})
				return true
			}
			for j := range s.jobs {
				if shed(j) {
					continue
				}
				batch := w.batch[:0]
				batch = append(batch, j)
				// Drain at most a fair share of the visible backlog: with
				// several workers, grabbing the whole queue into one batch
				// would serialize work the pool could run concurrently, so
				// each drain leaves (workers-1)/workers of the backlog for
				// the others. A deep backlog still fills whole batches.
				limit := 1 + (len(s.jobs)+len(s.workers)-1)/len(s.workers)
				if limit > cap(w.batch) {
					limit = cap(w.batch)
				}
			drain:
				for len(batch) < limit {
					select {
					case j2, ok := <-s.jobs:
						if !ok {
							break drain
						}
						if shed(j2) {
							continue
						}
						batch = append(batch, j2)
					default:
						break drain
					}
				}
				if err := guard(func() { w.runJobs(batch) }); err != nil {
					// The batch died mid-InvokeBatch: no per-job result is
					// trustworthy, so every job in it reports the panic.
					for i := range batch {
						w.res[i] = Result{Label: -1, Err: err}
					}
				}
				for i := range batch {
					finish(batch[i], w.res[i])
				}
			}
		}(w)
	}
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
// submissions; Submit, Stream.Submit and RunBatch draw from it and Release
// returns to it.
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

// RunBatch classifies every utterance and returns one Result per input, in
// order. Utterances are distributed dynamically over the worker pool, so a
// slow utterance never stalls the rest of the batch; each rides a pooled
// ticket.
func (s *Server) RunBatch(utts [][]int16) []Result {
	return runBatch(utts, func(samples []int16, c completer) error {
		return s.send(job{samples: samples, fin: c}, true)
	})
}

// runBatch is RunBatch over any submission form: submit enqueues one
// utterance with its completion. It returns one Result per utterance, in
// order; a submission error is that utterance's Result. On ErrTenantBusy
// while part of the batch is in flight it waits for the oldest in-flight
// utterance and retries, so a batch larger than a tenant's queue cap paces
// itself on its own work. A bare server never returns that error.
func runBatch(utts [][]int16, submit func(samples []int16, c completer) error) []Result {
	results := make([]Result, len(utts))
	tickets := make([]*Pending, len(utts))
	oldest := 0 // every ticket before oldest is settled
	// collect settles the oldest in-flight utterance before upto; it
	// reports false when none is in flight.
	collect := func(upto int) bool {
		for ; oldest < upto; oldest++ {
			if p := tickets[oldest]; p != nil {
				results[oldest] = p.Wait()
				p.Release()
				oldest++
				return true
			}
		}
		return false
	}
	for i := range utts {
		p := newPending()
		for {
			err := submit(utts[i], p)
			if err == nil {
				tickets[i] = p
				break
			}
			if errors.Is(err, ErrTenantBusy) && collect(i) {
				continue
			}
			pendingPool.Put(p)
			results[i] = Result{Label: -1, Err: err}
			break
		}
	}
	for collect(len(utts)) {
	}
	return results
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
// one per worker plus one, enough to keep the queue full while one
// fingerprint is being assembled and others are on workers.
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
}

// complete returns the slot to its stream's free list, then delivers r.
// The fields are read first: the stream may reuse the slot at once.
func (h *hopSlot) complete(r Result) {
	hop, p, sq := h.hop, h.p, h.sq
	h.free <- h
	if p != nil {
		p.complete(r)
		return
	}
	sq.deliver(hop, r)
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
// unordered relative to each other. fn runs on worker goroutines under the
// stream's delivery lock — it must not block for long and must not submit
// back into the same server.
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
	st.sq = &seqDelivery{fn: fn, next: st.hops, pending: make(map[uint64]Result), panics: &st.srv.panics}
}

// Submit advances the stream by chunk on the server that opened it and
// submits one inference per newly completed hop once the stream is warm (a
// full fingerprint window observed), returning the tickets in hop order —
// or, after OnResult, no tickets: each hop's result is then delivered
// through the stream's callback in hop order. When all of the stream's hop
// slots are in flight it waits for a worker to recycle one — the streaming
// face of queue backpressure. On error (ErrServerClosed mid-chunk) the
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
