// Multi-tenant serving tier: the Registry fronts N models × M core.Server
// shards behind one admission layer, converting the single fast box into
// the fleet shape ROADMAP item 1 demands. Three properties are the point:
//
//   - Routing: every submission names a model id; the Registry resolves it
//     to the model's current shard set (round-robin across shards) behind
//     the Engine interface, so workers are parameterized over (model,
//     interpreter flavor) instead of hard-coding one Server.
//   - Hot swap with zero dropped requests: Swap verifies a signed, sealed
//     SwapPackage (vendor signature, monotone version — the omgcrypto
//     provenance/license machinery), flushes already-admitted work to the
//     outgoing shard set, brings the new set live for new submissions,
//     drains the old servers (the PR-6 drain contract: Close completes
//     every accepted job) and releases them. In-flight requests on the old
//     model complete bit-exactly; streams bound to the old set either
//     finish there or report ErrModelSwapped with a retry expectation.
//   - Per-tenant admission control: each tenant owns a bounded queue and a
//     DRR (deficit-round-robin) weight; a single dispatcher drains the
//     tenant queues into the shard pool in weight proportion, so under
//     saturation a flooding tenant cannot starve the others. The per-tenant
//     cap plus TenantCounters (accepted/busy/shed/dispatched) replace the
//     single global BUSY bit.
//
// Self-healing (health.go) layers on top: every shard carries a circuit
// breaker fed by outcome scoring, open shards leave the rotation, a
// supervisor rebuilds persistently-broken shards, and a queue-delay
// controller sheds over-share tenants with computed retry-after hints.
package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/omgcrypto"
	"repro/internal/tflm"
)

// ErrModelSwapped reports a submission bound to a shard set that has been
// retired by a hot swap: the work is not lost server-side (everything the
// old set accepted completes), but this binding — typically a stream — is
// over. The caller should reopen against the current generation; the wire
// face is CodeModelSwapped with a retry hint.
var ErrModelSwapped = errors.New("core: model swapped; reopen against the new generation")

// ErrUnknownModel reports a submission naming a model id the registry does
// not serve.
var ErrUnknownModel = errors.New("core: unknown model id")

// ErrTenantBusy reports admission-control backpressure: the submitting
// tenant's queue is at its cap. It is the per-tenant successor of the
// single global ErrQueueFull BUSY — one tenant's flood fills only that
// tenant's queue.
var ErrTenantBusy = errors.New("core: tenant queue full")

// ErrRegistryClosed is returned by submissions after Registry.Close.
var ErrRegistryClosed = errors.New("core: registry closed")

// ErrSwapRejected classifies a Swap that failed provenance checks —
// signature, rollback (non-increasing version), or envelope decryption.
// The serving state is untouched by a rejected swap.
var ErrSwapRejected = errors.New("core: model swap rejected")

// Engine is the inference backend a Registry shard fronts: the subset of
// core.Server the serving tier needs, so a shard can be a local Server, a
// test double, or any other interpreter flavor. Implementations must honor
// the Server drain contract: Close completes every accepted submission
// before returning.
type Engine interface {
	// SubmitFuncDeadline enqueues one utterance, blocking while the queue
	// is full; fn fires exactly once with the result. A nonzero deadline
	// sheds the job at dequeue with ErrDeadlineExceeded.
	SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error
	// TrySubmitFuncDeadline is the non-blocking form: ErrQueueFull instead
	// of waiting.
	TrySubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error
	// OpenStream opens a continuous audio stream on this engine.
	OpenStream() (*Stream, error)
	// Workers returns the engine's worker pool size.
	Workers() int
	// LiveWorkers returns the currently running worker count (health).
	LiveWorkers() int
	// Close drains all accepted work, then releases the engine.
	Close()
}

// Compile-time proof that the persistent Server is an Engine.
var _ Engine = (*Server)(nil)

// EngineFactory builds one shard engine over a model. nil means NewServer.
type EngineFactory func(model *tflm.Model, cfg ServerConfig) (Engine, error)

// TenantConfig parameterizes one tenant's admission control.
type TenantConfig struct {
	// Weight is the tenant's DRR quantum — how many requests per
	// dispatcher round it may dispatch while backlogged. Goodput under
	// saturation is proportional to Weight. <= 0 means 1.
	Weight int
	// MaxQueue caps the tenant's admission queue; submissions beyond it
	// fail with ErrTenantBusy. <= 0 means DefaultTenantQueue.
	MaxQueue int
}

// DefaultTenantQueue is the per-tenant admission queue cap when
// TenantConfig.MaxQueue is unset.
const DefaultTenantQueue = 64

// ModelConfig describes one served model at registry construction.
type ModelConfig struct {
	// Model is the initial model; each shard engine clones it.
	Model *tflm.Model
	// Version is the initial model version (swap versions must exceed it).
	// 0 means 1.
	Version uint64
	// VendorPub is the DER public key trusted to sign SwapPackages for
	// this model — the provenance anchor of hot swap. nil disables Swap.
	VendorPub []byte
	// Key is the symmetric key (KU) that opens swap envelopes. Required
	// when VendorPub is set.
	Key []byte
}

// RegistryConfig parameterizes NewRegistry.
type RegistryConfig struct {
	// Shards is how many engines serve each model; <= 0 means 1.
	Shards int
	// Server configures each shard engine (NewServer unless Engine is set).
	Server ServerConfig
	// Engine overrides the shard factory; nil means NewServer. Test
	// doubles and alternative interpreter flavors plug in here.
	Engine EngineFactory
	// Tenants pre-declares known tenants; unknown tenants materialize on
	// first submission with DefaultTenant's configuration.
	Tenants map[string]TenantConfig
	// DefaultTenant configures tenants not listed in Tenants. The zero
	// value means weight 1, queue DefaultTenantQueue.
	DefaultTenant TenantConfig
	// Breaker tunes per-shard circuit breaking and the rebuild supervisor;
	// the zero value uses the defaults.
	Breaker BreakerConfig
	// Overload tunes the queue-delay admission controller; the zero value
	// uses the defaults.
	Overload OverloadConfig
}

// TenantCounters is one tenant's admission-control observability snapshot.
type TenantCounters struct {
	// Accepted counts submissions admitted to the tenant queue.
	Accepted uint64
	// Busy counts submissions rejected at admission (queue at cap) — the
	// per-tenant BUSY rate.
	Busy uint64
	// Shed counts admitted submissions completed with an error by the
	// dispatcher (queue deadline passed before dispatch, registry closed).
	Shed uint64
	// Dispatched counts admitted submissions handed to a shard engine.
	Dispatched uint64
}

// admJob is one admitted submission waiting in a tenant queue.
type admJob struct {
	entry    *modelEntry
	tenant   *tenantState
	samples  []int16
	deadline time.Time
	enq      time.Time // admission instant; sojourn feeds the overload controller
	fin      completer
}

// tenantState is one tenant's admission queue plus DRR bookkeeping. The
// queue is a head-indexed slice (amortized allocation-free once warm);
// deficit and active are dispatcher state, all guarded by Registry.amu.
type tenantState struct {
	name    string
	weight  int
	cap     int
	q       []admJob
	head    int
	deficit int
	active  bool

	accepted   atomic.Uint64
	busy       atomic.Uint64
	shed       atomic.Uint64
	dispatched atomic.Uint64
}

// depth returns the queued-job count.
func (t *tenantState) depth() int { return len(t.q) - t.head }

// pop removes the head job; the caller holds amu and checked depth() > 0.
func (t *tenantState) pop() admJob {
	j := t.q[t.head]
	t.q[t.head] = admJob{} // release references for GC
	t.head++
	if t.head == len(t.q) {
		t.q = t.q[:0]
		t.head = 0
	}
	return j
}

// shardSet is one generation of shards serving a model. next distributes
// submissions round-robin; retired flips exactly once when a swap replaces
// the set, which is how stream bindings distinguish "model swapped" from a
// genuinely closed server. model is retained so the supervisor can rebuild
// a broken shard's engine from the package that built the set.
type shardSet struct {
	version uint64
	model   *tflm.Model
	shards  []*shard
	next    atomic.Uint32
	retired atomic.Bool
}

// modelEntry is one served model: its trust anchors and the atomically
// swappable current shard set. smu serializes Swap (and Close's retirement)
// per model.
type modelEntry struct {
	id        string
	vendorPub []byte
	key       []byte

	smu sync.Mutex
	cur atomic.Pointer[shardSet]

	// inflight counts dispatcher jobs popped for this entry whose engine
	// submit has not yet committed; guarded by Registry.amu. Swap's flush
	// barrier waits for it to reach zero so a job that resolved the old
	// shard set always lands before the old engines close.
	inflight int
}

// Registry is the sharded multi-model serving tier. Construct with
// NewRegistry, submit with Submit or OpenStream, update models in the field
// with Swap, and Close when done: Close stops admission, drains every
// admitted submission, then drains and releases every shard engine.
type Registry struct {
	cfg      RegistryConfig
	factory  EngineFactory
	entries  map[string]*modelEntry // immutable after construction
	ids      []string               // sorted model ids: deterministic iteration
	breaker  BreakerConfig          // resolved (withDefaults)
	overload OverloadConfig         // resolved (withDefaults)
	hcPool   sync.Pool              // *healthCb outcome wrappers

	amu     sync.Mutex
	cond    *sync.Cond // dispatcher wakeup: backlog appeared or closing
	idle    *sync.Cond // swap-barrier wakeup: an in-flight dispatch committed
	tenants map[string]*tenantState
	active  []*tenantState // backlogged tenants, DRR order
	closed  bool

	// now is the registry's one clock: admission and dispatch stamps for
	// the overload controller, dispatch deadline shedding, breaker
	// cooldowns and the supervisor's rebuild backoff. time.Now outside
	// tests, which swap in a fake clock before the first Submit.
	now func() time.Time
	// overloadWindow is defaultOverloadWindow outside tests, which shorten
	// it before the first Submit.
	overloadWindow time.Duration

	// Overload-controller state, guarded by amu.
	backlog    int           // admitted-but-undispatched jobs across all tenants
	aboveSince time.Time     // start of the current above-target sojourn run
	overloaded bool          // controller verdict: shed over-share tenants
	svcEWMA    time.Duration // inter-dispatch interval EWMA (service rate)
	lastPop    time.Time     // previous dispatch instant; zeroed on idle

	dispatcherDone chan struct{}
	superKick      chan struct{} // breaker trip -> supervisor wakeup
	superStop      chan struct{}
	superDone      chan struct{}
}

// NewRegistry builds the serving tier over the given models. Each model
// gets cfg.Shards engines built by the factory; the admission dispatcher
// starts immediately.
func NewRegistry(models map[string]ModelConfig, cfg RegistryConfig) (*Registry, error) {
	if len(models) == 0 {
		return nil, errors.New("core: registry needs at least one model")
	}
	factory := cfg.Engine
	if factory == nil {
		factory = func(m *tflm.Model, sc ServerConfig) (Engine, error) { return NewServer(m, sc) }
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	r := &Registry{
		cfg:            cfg,
		factory:        factory,
		entries:        make(map[string]*modelEntry, len(models)),
		breaker:        cfg.Breaker.withDefaults(),
		overload:       cfg.Overload.withDefaults(),
		tenants:        make(map[string]*tenantState),
		now:            time.Now,
		overloadWindow: defaultOverloadWindow,
		dispatcherDone: make(chan struct{}),
		superKick:      make(chan struct{}, 1),
		superStop:      make(chan struct{}),
		superDone:      make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.amu)
	r.idle = sync.NewCond(&r.amu)
	// Deterministic construction order so a failure mid-build releases the
	// same prefix run over run.
	ids := make([]string, 0, len(models))
	for id := range models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		mc := models[id]
		if mc.Model == nil {
			r.releaseAll()
			return nil, fmt.Errorf("core: model %q: nil model", id)
		}
		if mc.VendorPub != nil && len(mc.Key) != omgcrypto.KeySize {
			r.releaseAll()
			return nil, fmt.Errorf("core: model %q: swap enabled but key is %d bytes, want %d", id, len(mc.Key), omgcrypto.KeySize)
		}
		version := mc.Version
		if version == 0 {
			version = 1
		}
		set, err := r.buildShardSet(mc.Model, version)
		if err != nil {
			r.releaseAll()
			return nil, fmt.Errorf("core: model %q: %w", id, err)
		}
		e := &modelEntry{id: id, vendorPub: mc.VendorPub, key: mc.Key}
		e.cur.Store(set)
		r.entries[id] = e
	}
	r.ids = ids
	go r.dispatch()
	go r.supervise()
	return r, nil
}

// buildShardSet constructs one generation of engines over model.
func (r *Registry) buildShardSet(model *tflm.Model, version uint64) (*shardSet, error) {
	set := &shardSet{version: version, model: model, shards: make([]*shard, 0, r.cfg.Shards)}
	for i := 0; i < r.cfg.Shards; i++ {
		eng, err := r.factory(model, r.cfg.Server)
		if err != nil {
			for _, built := range set.shards {
				built.engine().Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		sh := &shard{idx: i}
		sh.setEngine(eng)
		set.shards = append(set.shards, sh)
	}
	return set, nil
}

// releaseAll closes every built engine (constructor failure path).
func (r *Registry) releaseAll() {
	for _, e := range r.entries {
		for _, sh := range e.cur.Load().shards {
			sh.engine().Close()
		}
	}
}

// Models returns the served model ids, sorted.
func (r *Registry) Models() []string { return slices.Clone(r.ids) }

// ModelVersion returns the current version of model id, and whether the
// registry serves it.
func (r *Registry) ModelVersion(id string) (uint64, bool) {
	e, ok := r.entries[id]
	if !ok {
		return 0, false
	}
	return e.cur.Load().version, true
}

// InjectPanicShard arms the worker-panic chaos hook on one shard of model
// id, when its engine exposes one (core.Server does); panic-storm chaos
// uses it to concentrate failures on a single shard until its breaker
// trips. It reports whether a hook was armed — false for unknown models,
// out-of-range shards or engines without the hook.
func (r *Registry) InjectPanicShard(id string, shard int) bool {
	e, ok := r.entries[id]
	if !ok {
		return false
	}
	set := e.cur.Load()
	if shard < 0 || shard >= len(set.shards) {
		return false
	}
	if chaos, ok := set.shards[shard].engine().(interface{ InjectPanic() }); ok {
		chaos.InjectPanic()
		return true
	}
	return false
}

// tenantFor returns (materializing if needed) the tenant's state; the
// caller holds amu.
func (r *Registry) tenantFor(name string) *tenantState {
	t := r.tenants[name]
	if t != nil {
		return t
	}
	tc, ok := r.cfg.Tenants[name]
	if !ok {
		tc = r.cfg.DefaultTenant
	}
	if tc.Weight <= 0 {
		tc.Weight = 1
	}
	if tc.MaxQueue <= 0 {
		tc.MaxQueue = DefaultTenantQueue
	}
	t = &tenantState{name: name, weight: tc.Weight, cap: tc.MaxQueue}
	r.tenants[name] = t
	return t
}

// TenantCounters returns the tenant's admission counters; zero counters
// for tenants that never submitted.
func (r *Registry) TenantCounters(name string) TenantCounters {
	r.amu.Lock()
	t := r.tenants[name]
	r.amu.Unlock()
	if t == nil {
		return TenantCounters{}
	}
	return TenantCounters{
		Accepted:   t.accepted.Load(),
		Busy:       t.busy.Load(),
		Shed:       t.shed.Load(),
		Dispatched: t.dispatched.Load(),
	}
}

// Submit admits one utterance for (model, tenant): non-blocking admission
// into the tenant's queue, weighted-fair dispatch to the model's current
// shard set, fn invoked exactly once with the result (on a worker or
// dispatcher goroutine — same contract as Server.SubmitFuncDeadline).
// Admission failures are synchronous: ErrUnknownModel, ErrTenantBusy when the
// tenant's queue is at cap (the per-tenant BUSY, with a computed retry-after
// via *TenantBusyError), ErrOverloaded when the queue-delay controller is
// shedding this tenant for exceeding its fair share (*OverloadError, also
// hinted), ErrRegistryClosed after Close. A nonzero deadline sheds the job
// — at dispatch or at engine dequeue — with ErrDeadlineExceeded once it
// passes. Work is only ever refused here: once admitted, a submission is
// never dropped by overload control.
func (r *Registry) Submit(model, tenant string, samples []int16, deadline time.Time, fn func(Result)) error {
	e, ok := r.entries[model]
	if !ok {
		return ErrUnknownModel
	}
	r.amu.Lock()
	if r.closed {
		r.amu.Unlock()
		return ErrRegistryClosed
	}
	t := r.tenantFor(tenant)
	if r.overloaded && r.overShareLocked(t, t.depth()+1) {
		// Queue-delay controller: dispatch sojourn has been above target for
		// a full window and this tenant is hogging the backlog — shed at
		// admission, before the job costs queue memory. Checked before the
		// hard cap so a capped flood surfaces the overload verdict, not a
		// generic BUSY.
		retry := r.retryAfterLocked()
		r.amu.Unlock()
		t.busy.Add(1)
		return &OverloadError{RetryAfter: retry}
	}
	if t.depth() >= t.cap {
		// Hard cap: the memory backstop. The hint is computed from the
		// measured service rate, not a config constant.
		retry := r.retryAfterLocked()
		r.amu.Unlock()
		t.busy.Add(1)
		return &TenantBusyError{RetryAfter: retry}
	}
	t.q = append(t.q, admJob{entry: e, tenant: t, samples: samples, deadline: deadline, enq: r.now(), fin: funcCompleter(fn)})
	r.backlog++
	t.accepted.Add(1)
	if !t.active {
		t.active = true
		r.active = append(r.active, t)
		r.cond.Signal()
	}
	r.amu.Unlock()
	return nil
}

// dispatch is the admission dispatcher: deficit round robin over the
// backlogged tenants. Each round the head tenant earns its weight in
// request credits and dispatches up to that many queued jobs (blocking on
// shard backpressure — fairness is decided here, so the engines only ever
// see work in fair proportion); a tenant whose queue empties leaves the
// round-robin ring and forfeits its deficit, per DRR. After Close the
// dispatcher drains every remaining admitted job before exiting — the
// registry half of the drain contract.
func (r *Registry) dispatch() {
	defer close(r.dispatcherDone)
	r.amu.Lock()
	for {
		for len(r.active) == 0 {
			if r.closed {
				r.amu.Unlock()
				return
			}
			r.lastPop = time.Time{} // idle: think time must not skew the rate
			r.cond.Wait()
		}
		// Pop the ring head by copying the rest down, so the ring reuses one
		// backing array instead of walking through it until append
		// reallocates.
		t := r.active[0]
		n := copy(r.active, r.active[1:])
		r.active[n] = nil
		r.active = r.active[:n]
		t.deficit += t.weight
		for t.deficit > 0 && t.depth() > 0 {
			j := t.pop()
			t.deficit--
			r.backlog--
			now := r.now()
			r.noteServiceLocked(now)
			if !j.enq.IsZero() {
				r.overloadObserveLocked(now.Sub(j.enq), now)
			}
			// Resolve the target generation under amu: a Swap flush barrier
			// that runs after this pop observes inflight > 0 and waits for
			// the dispatch to commit before it retires this set.
			set := j.entry.cur.Load()
			j.entry.inflight++
			r.amu.Unlock()
			r.dispatchOne(set, j)
			r.amu.Lock()
			if j.entry.inflight--; j.entry.inflight == 0 {
				r.idle.Broadcast()
			}
		}
		if t.depth() > 0 {
			r.active = append(r.active, t)
		} else {
			t.deficit = 0
			t.active = false
		}
	}
}

// swapRetryLimit bounds how often a dispatch retries against a fresh shard
// set after racing a swap's engine retirement. One retry is enough in
// practice (the new set is live before the old one closes); the bound is a
// defensive backstop, not a policy.
const swapRetryLimit = 8

// dispatchOne hands one admitted job to its model's current shard set.
// Jobs whose deadline already passed are shed here without costing an
// engine slot. A dispatch that races a hot swap (the set it resolved
// retired under it) re-resolves and retries — this is the mechanism that
// makes swap drop zero accepted requests.
func (r *Registry) dispatchOne(set *shardSet, j admJob) {
	if !j.deadline.IsZero() && r.now().After(j.deadline) {
		j.tenant.shed.Add(1)
		j.fin.complete(Result{Label: -1, Err: ErrDeadlineExceeded})
		return
	}
	for attempt := 0; ; attempt++ {
		err := r.submitTo(set, j)
		if err == nil {
			j.tenant.dispatched.Add(1)
			return
		}
		if errors.Is(err, ErrServerClosed) && attempt < swapRetryLimit {
			set = j.entry.cur.Load() // raced a swap: retry on the new set
			continue
		}
		j.tenant.shed.Add(1)
		j.fin.complete(Result{Label: -1, Err: err})
		return
	}
}

// submitTo places a job on one of the set's engines: a non-blocking pass
// over every breaker-admissible shard first (work-stealing across shard
// queues), then a blocking submit on the first admitted shard when all are
// full. Open shards are skipped — except that when every shard of the set
// is open or probing, the rotation choice serves anyway: breakers shed
// routing preference, never the last capacity. Every callback is wrapped
// in a pooled outcome recorder that feeds the shard's health scoring.
func (r *Registry) submitTo(set *shardSet, j admJob) error {
	n := len(set.shards)
	start := int(set.next.Add(1)-1) % n
	now := r.now().UnixNano()
	hc := r.getHealthCb()
	var admitted *shard
	for k := 0; k < n; k++ {
		sh := set.shards[(start+k)%n]
		if !sh.admit(now) {
			continue
		}
		if admitted == nil {
			admitted = sh
		}
		hc.sh, hc.fin = sh, j.fin
		err := sh.engine().TrySubmitFuncDeadline(j.samples, j.deadline, hc.cb)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrQueueFull) {
			r.putHealthCb(hc)
			return err
		}
		// A half-open probe that found a full queue stays half-open: the
		// backlog draining from that engine carries outcome recorders, and
		// their verdicts resolve the probe.
	}
	if admitted == nil {
		admitted = set.shards[start]
	}
	hc.sh, hc.fin = admitted, j.fin
	if err := admitted.engine().SubmitFuncDeadline(j.samples, j.deadline, hc.cb); err != nil {
		r.putHealthCb(hc)
		return err
	}
	return nil
}

// RegistryStream is a stream bound to one model generation. It delegates
// to the underlying core.Stream; once a hot swap retires the generation —
// or the supervisor rebuilds the shard the stream is bound to — Submit
// reports ErrModelSwapped (accepted hops still complete and deliver
// through OnResult — the binding breaks, the work does not).
type RegistryStream struct {
	set *shardSet
	sh  *shard
	gen uint64 // sh.gen at open; a mismatch means the engine was rebuilt away
	st  *Stream
}

// OpenStream opens a stream for (model, tenant) on one shard of the
// model's current generation. Streams bypass the admission queues — their
// flow control is the per-stream buffer budget — but stay bound to the
// generation that opened them: after a swap the stream finishes its
// accepted hops on the old interpreter and then reports ErrModelSwapped.
func (r *Registry) OpenStream(model, tenant string) (*RegistryStream, error) {
	e, ok := r.entries[model]
	if !ok {
		return nil, ErrUnknownModel
	}
	r.amu.Lock()
	closed := r.closed
	r.amu.Unlock()
	if closed {
		return nil, ErrRegistryClosed
	}
	set := e.cur.Load()
	n := len(set.shards)
	start := int(set.next.Add(1)-1) % n
	sh := set.shards[start]
	// Prefer a closed-breaker shard; fall back to the rotation choice when
	// every shard is open (availability over purity).
	for k := 0; k < n; k++ {
		if cand := set.shards[(start+k)%n]; BreakerState(cand.state.Load()) == BreakerClosed {
			sh = cand
			break
		}
	}
	gen := sh.gen.Load()
	st, err := sh.engine().OpenStream()
	if err != nil {
		return nil, err
	}
	return &RegistryStream{set: set, sh: sh, gen: gen, st: st}, nil
}

// OnResult switches the stream to callback delivery (core.Stream.OnResult).
func (rs *RegistryStream) OnResult(fn func(hop uint64, r Result)) { rs.st.OnResult(fn) }

// Hops returns how many inference hops the stream has submitted.
func (rs *RegistryStream) Hops() uint64 { return rs.st.Hops() }

// Swapped reports whether the stream's generation has been retired by a
// hot swap (or its shard rebuilt away by the supervisor).
func (rs *RegistryStream) Swapped() bool {
	return rs.set.retired.Load() || rs.sh.gen.Load() != rs.gen
}

// Submit advances the stream by chunk. Once the stream's generation has
// been retired by a swap — or its shard's engine rebuilt by the supervisor
// — Submit reports ErrModelSwapped instead of the engine's ErrServerClosed:
// hops accepted before retirement still deliver, and the caller reopens
// against the current generation.
func (rs *RegistryStream) Submit(chunk []int16) ([]*Pending, error) {
	tickets, err := rs.st.Submit(chunk)
	if err != nil && errors.Is(err, ErrServerClosed) && rs.Swapped() {
		err = ErrModelSwapped
	}
	return tickets, err
}

// SwapPackage is a provenance-checked model update: the field-swap
// counterpart of the provisioning-phase ModelPackage. Blob is a marshalled
// omgcrypto.Envelope over the OMGM bytes, sealed under the model's KU with
// ModelAAD(Version); VendorSig signs the canonical TBS encoding under the
// vendor key the registry pins. Everything here is safe to move over an
// untrusted channel.
type SwapPackage struct {
	// ModelID names the registry entry the package updates.
	ModelID string
	// Version is the new model version; Swap enforces monotone increase
	// (the rollback half of the license machinery).
	Version uint64
	// Blob is the sealed model envelope (omgcrypto.Envelope.Marshal).
	Blob []byte
	// VendorSig is the vendor signature over swapTBS.
	VendorSig []byte
}

// swapTBS is the canonical signed encoding of a SwapPackage.
func swapTBS(modelID string, version uint64, blob []byte) []byte {
	out := make([]byte, 0, len("omg-swap")+len(modelID)+1+8+len(blob))
	out = append(out, "omg-swap"...)
	out = append(out, byte(len(modelID)))
	out = append(out, modelID...)
	var v [8]byte
	for i := range v {
		v[i] = byte(version >> (8 * i))
	}
	out = append(out, v[:]...)
	out = append(out, blob...)
	return out
}

// Swap hot-swaps model id to the package's version with zero dropped
// requests. The sequence:
//
//  1. Provenance: the vendor signature is verified against the pinned key,
//     the version must strictly increase (rollback protection), and the
//     blob must open under the model's KU bound to ModelAAD(version) —
//     any failure is ErrSwapRejected and the serving state is untouched.
//  2. The new shard set is built and its workers started.
//  3. Already-admitted submissions for this model are flushed from the
//     tenant queues to the outgoing set, so every request accepted before
//     Swap classifies on the model version current at admission.
//  4. The new set is installed: new submissions route to it from here on.
//  5. The old set is marked retired and its engines drained and released
//     (Engine.Close): every in-flight and queued request completes —
//     bit-exactly on the old model — before Swap returns. Streams bound
//     to the old set deliver their accepted hops and then report
//     ErrModelSwapped.
//
// Swaps of one model serialize; swaps of different models may overlap.
func (r *Registry) Swap(id string, pkg *SwapPackage) error {
	e, ok := r.entries[id]
	if !ok {
		return ErrUnknownModel
	}
	e.smu.Lock()
	defer e.smu.Unlock()
	r.amu.Lock()
	closed := r.closed
	r.amu.Unlock()
	if closed {
		return ErrRegistryClosed
	}
	if e.vendorPub == nil {
		return fmt.Errorf("%w: model %q has no pinned vendor key", ErrSwapRejected, id)
	}
	if pkg.ModelID != id {
		return fmt.Errorf("%w: package is for model %q, not %q", ErrSwapRejected, pkg.ModelID, id)
	}
	old := e.cur.Load()
	if pkg.Version <= old.version {
		return fmt.Errorf("%w: version must increase (%d -> %d)", ErrSwapRejected, old.version, pkg.Version)
	}
	if err := omgcrypto.Verify(e.vendorPub, swapTBS(pkg.ModelID, pkg.Version, pkg.Blob), pkg.VendorSig); err != nil {
		return fmt.Errorf("%w: %v", ErrSwapRejected, err)
	}
	env, err := omgcrypto.UnmarshalEnvelope(pkg.Blob)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSwapRejected, err)
	}
	blob, err := omgcrypto.Open(e.key, env, omgcrypto.ModelAAD(pkg.Version))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSwapRejected, err)
	}
	model, err := tflm.Decode(blob)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSwapRejected, err)
	}

	next, err := r.buildShardSet(model, pkg.Version)
	if err != nil {
		return fmt.Errorf("core: swap %q: %w", id, err)
	}

	// Flush admitted-but-undispatched work for this model to the outgoing
	// set: collected under the admission lock (order within each tenant
	// preserved), dispatched outside it (blocking submits drain into the
	// old engines, which are still at full strength).
	r.amu.Lock()
	var flush []admJob
	for _, t := range r.tenants {
		kept := t.q[:t.head]
		for _, j := range t.q[t.head:] {
			if j.entry == e {
				flush = append(flush, j)
			} else {
				kept = append(kept, j)
			}
		}
		t.q = kept
	}
	r.backlog -= len(flush)
	// Barrier: a dispatch popped before the sweep resolved the outgoing
	// set under amu; wait for it to commit into the (still live) old
	// engines before cutting over.
	for e.inflight > 0 {
		r.idle.Wait()
	}
	r.amu.Unlock()
	// The old set is neither retired nor closed until after the flush, so
	// dispatchOne's swap retry never fires here.
	for _, j := range flush {
		r.dispatchOne(old, j)
	}

	e.cur.Store(next)
	old.retired.Store(true)
	for _, sh := range old.shards {
		sh.engine().Close()
	}
	return nil
}

// Close shuts the registry down with the drain contract: admission stops
// (new submissions get ErrRegistryClosed), the dispatcher drains every
// admitted job into the engines, and every engine is drained and released.
// Every submission accepted before Close completes before Close returns.
// Idempotent.
func (r *Registry) Close() {
	r.amu.Lock()
	if r.closed {
		r.amu.Unlock()
		<-r.dispatcherDone
		return
	}
	r.closed = true
	r.cond.Broadcast()
	r.amu.Unlock()
	<-r.dispatcherDone
	// Stop the rebuild supervisor before releasing engines so a rebuild
	// cannot race the final close.
	close(r.superStop)
	<-r.superDone
	for _, e := range r.entries {
		e.smu.Lock()
		for _, eng := range e.cur.Load().shards {
			eng.engine().Close()
		}
		e.smu.Unlock()
	}
}

// SwapSigner is the vendor side of hot swap: it owns the signing identity
// and the model key KU, and mints provenance-checked SwapPackages that a
// Registry pinned to VendorPub/Key will accept. cmd/omg-serve uses one for
// SIGHUP-triggered swaps; tests and the chaos harness mint adversarial and
// honest packages with it.
type SwapSigner struct {
	identity *omgcrypto.Identity
	key      []byte
}

// NewSwapSigner generates a fresh vendor identity and model key from rng
// (omgcrypto.Rand when nil).
func NewSwapSigner(rng io.Reader) (*SwapSigner, error) {
	id, err := omgcrypto.NewIdentity(rng, "omg-swap-vendor")
	if err != nil {
		return nil, err
	}
	key, err := omgcrypto.RandomBytes(rng, omgcrypto.KeySize)
	if err != nil {
		return nil, err
	}
	return &SwapSigner{identity: id, key: key}, nil
}

// VendorPub returns the DER public key to pin as ModelConfig.VendorPub.
func (s *SwapSigner) VendorPub() []byte { return s.identity.Public() }

// Key returns the model key to pin as ModelConfig.Key.
func (s *SwapSigner) Key() []byte { return s.key }

// Package seals and signs model as a SwapPackage for (modelID, version).
func (s *SwapSigner) Package(modelID string, version uint64, model *tflm.Model) (*SwapPackage, error) {
	blob, err := tflm.Encode(model)
	if err != nil {
		return nil, err
	}
	env, err := omgcrypto.Seal(nil, s.key, blob, omgcrypto.ModelAAD(version))
	if err != nil {
		return nil, err
	}
	sealed := env.Marshal()
	sig, err := s.identity.Sign(swapTBS(modelID, version, sealed))
	if err != nil {
		return nil, err
	}
	return &SwapPackage{ModelID: modelID, Version: version, Blob: sealed, VendorSig: sig}, nil
}
