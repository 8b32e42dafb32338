// Shard health tracking and self-healing for the Registry (ISSUE 9): every
// shard carries a three-state circuit breaker fed by per-outcome health
// scoring, open shards leave the dispatch rotation, and a supervisor
// goroutine rebuilds persistently-broken shards from the model package under
// capped exponential backoff. The design constraints, in order:
//
//   - Zero dropped admitted work: a breaker redirects NEW dispatches only.
//     Jobs an engine already accepted complete through the drain contract
//     (Engine.Close completes every accepted submission), and a rebuild
//     closes the broken engine only after its replacement is installed.
//   - Bit-exact results on survivors: health routing never touches the
//     inference path — a job served by any closed shard classifies exactly
//     as it would have on a healthy set.
//   - Availability over purity: when every shard of a set is open, dispatch
//     falls through to the rotation choice anyway. Breakers shed routing
//     preference, never the last capacity.
package core

import (
	"errors"
	"sync/atomic"
	"time"
)

// BreakerState is one shard's circuit-breaker position.
type BreakerState int32

// Breaker states: Closed admits traffic, Open sheds it until the cooldown
// expires, HalfOpen has exactly one probe in flight whose outcome decides
// between reclosing and reopening.
const (
	// BreakerClosed is the healthy state: the shard is in rotation.
	BreakerClosed BreakerState = iota
	// BreakerOpen is the tripped state: the shard is out of rotation until
	// its cooldown expires.
	BreakerOpen
	// BreakerHalfOpen is the probing state: one submission is testing the
	// shard; success recloses, failure reopens with a doubled cooldown.
	BreakerHalfOpen
)

// String names the state for logs and health dumps.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// BreakerConfig parameterizes per-shard circuit breaking, which is always
// on; the zero value uses the defaults below.
type BreakerConfig struct {
	// Threshold is how many consecutive hard failures (worker panics,
	// engine errors — deadline sheds count toward the failure rate only)
	// trip a closed breaker. <= 0 means DefaultBreakerThreshold.
	Threshold int
	// Cooldown is the first open→half-open wait; it doubles per consecutive
	// trip. <= 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
	// CooldownMax caps the doubling (and the supervisor's rebuild backoff).
	// <= 0 means DefaultBreakerCooldownMax.
	CooldownMax time.Duration
	// RebuildAfter is how many consecutive trips mark a shard persistently
	// broken, making the supervisor rebuild its engine from the model
	// package. <= 0 means DefaultBreakerRebuildAfter.
	RebuildAfter int
}

// Breaker defaults; see BreakerConfig.
const (
	// DefaultBreakerThreshold trips after this many consecutive hard
	// failures.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is the first open→half-open wait.
	DefaultBreakerCooldown = 50 * time.Millisecond
	// DefaultBreakerCooldownMax caps the per-trip cooldown doubling.
	DefaultBreakerCooldownMax = 2 * time.Second
	// DefaultBreakerRebuildAfter rebuilds a shard after this many
	// consecutive trips.
	DefaultBreakerRebuildAfter = 3
)

// withDefaults resolves unset breaker knobs.
func (b BreakerConfig) withDefaults() BreakerConfig {
	if b.Threshold <= 0 {
		b.Threshold = DefaultBreakerThreshold
	}
	if b.Cooldown <= 0 {
		b.Cooldown = DefaultBreakerCooldown
	}
	if b.CooldownMax <= 0 {
		b.CooldownMax = DefaultBreakerCooldownMax
	}
	if b.RebuildAfter <= 0 {
		b.RebuildAfter = DefaultBreakerRebuildAfter
	}
	return b
}

// breakerFailureRate is the failure-rate EWMA level that trips a closed
// breaker even without a consecutive run — the intermittent-failure
// detector.
const breakerFailureRate = 0.5

// ewmaScale is the fixed-point unit of the failure-rate EWMA (1.0).
const ewmaScale = 1 << 16

// ewmaMinSamples gates the rate trip: the EWMA must have seen at least this
// many outcomes since the last reset before its level alone can trip.
const ewmaMinSamples = 16

// shard is one engine slot of a shardSet plus its health state. The engine
// is behind an atomic pointer because the supervisor replaces it in place on
// rebuild while the dispatcher keeps reading it.
type shard struct {
	idx int
	eng atomic.Pointer[Engine]
	// gen counts engine rebuilds; stream bindings record it so a binding to
	// a rebuilt-away engine can be distinguished from a closed server.
	gen atomic.Uint64

	state   atomic.Int32  // BreakerState
	consec  atomic.Int32  // consecutive hard failures
	ewma    atomic.Uint64 // failure-rate EWMA, fixed point over ewmaScale
	samples atomic.Uint64 // outcomes since the last breaker reset

	trips       atomic.Uint64 // lifetime trip count
	consecTrips atomic.Int32  // trips since the last reclose (drives cooldown + rebuild)
	rebuilds    atomic.Uint64 // lifetime supervisor rebuilds
	openUntil   atomic.Int64  // unix nanos when an open breaker may probe

	// Supervisor-owned rebuild backoff (only the supervisor goroutine
	// touches these, so they need no atomics).
	rebuildDelay time.Duration
	rebuildAt    time.Time
}

// engine returns the shard's current engine.
func (sh *shard) engine() Engine { return *sh.eng.Load() }

// setEngine installs eng and returns the previous engine (nil at build).
func (sh *shard) setEngine(eng Engine) Engine {
	old := sh.eng.Swap(&eng)
	if old == nil {
		return nil
	}
	return *old
}

// admit reports whether a dispatch may target this shard now: always for a
// closed breaker, exactly once per expired cooldown for an open one (the
// CAS winner carries the half-open probe), never while a probe is in
// flight.
func (sh *shard) admit(now int64) bool {
	switch BreakerState(sh.state.Load()) {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return now >= sh.openUntil.Load() &&
			sh.state.CompareAndSwap(int32(BreakerOpen), int32(BreakerHalfOpen))
	default:
		return false
	}
}

// noteEWMA folds one outcome into the failure-rate EWMA (alpha = 1/16).
func (sh *shard) noteEWMA(fail bool) {
	var x uint64
	if fail {
		x = ewmaScale
	}
	for {
		old := sh.ewma.Load()
		nw := old - old>>4 + x>>4
		if sh.ewma.CompareAndSwap(old, nw) {
			break
		}
	}
	sh.samples.Add(1)
}

// failureRate returns the EWMA as a float in [0, 1].
func (sh *shard) failureRate() float64 { return float64(sh.ewma.Load()) / ewmaScale }

// ShardStatus is one shard's health snapshot (Registry.Health).
type ShardStatus struct {
	// Shard is the shard's index within its model's set.
	Shard int
	// State is the breaker position.
	State BreakerState
	// Gen counts supervisor rebuilds of this slot's engine.
	Gen uint64
	// ConsecutiveFailures is the current hard-failure run length.
	ConsecutiveFailures int
	// FailureRate is the outcome EWMA in [0, 1].
	FailureRate float64
	// Trips is the lifetime breaker-trip count.
	Trips uint64
	// Rebuilds is the lifetime supervisor-rebuild count.
	Rebuilds uint64
	// Workers is the engine's configured worker count.
	Workers int
	// Live is the engine's currently-running worker count.
	Live int
}

// ModelHealth is one model's health snapshot (Registry.Health).
type ModelHealth struct {
	// Model is the registry model id.
	Model string
	// Version is the model's current (swap-monotone) version.
	Version uint64
	// Shards holds one status per shard, in shard order.
	Shards []ShardStatus
}

// Health returns a point-in-time health snapshot of every served model,
// sorted by model id: per shard the breaker state, failure scoring, trip
// and rebuild counts, and worker liveness. This is the registry face of the
// FrameHealth admin query and the SIGUSR1 dump in cmd/omg-serve.
func (r *Registry) Health() []ModelHealth {
	out := make([]ModelHealth, 0, len(r.entries))
	for _, id := range r.ids {
		e := r.entries[id]
		set := e.cur.Load()
		mh := ModelHealth{Model: id, Version: set.version, Shards: make([]ShardStatus, len(set.shards))}
		for i, sh := range set.shards {
			eng := sh.engine()
			mh.Shards[i] = ShardStatus{
				Shard:               i,
				State:               BreakerState(sh.state.Load()),
				Gen:                 sh.gen.Load(),
				ConsecutiveFailures: int(sh.consec.Load()),
				FailureRate:         sh.failureRate(),
				Trips:               sh.trips.Load(),
				Rebuilds:            sh.rebuilds.Load(),
				Workers:             eng.Workers(),
				Live:                eng.LiveWorkers(),
			}
		}
		out = append(out, mh)
	}
	return out
}

// healthCb is the pooled outcome-recording wrapper around a job's callback.
// Like netfront's reqCtx, cb is bound to complete exactly once at pool-miss
// construction so the steady-state dispatch path allocates nothing.
type healthCb struct {
	r   *Registry
	sh  *shard
	fin completer
	cb  func(Result)
}

// complete records the outcome against the shard, recycles the wrapper, and
// forwards the result.
func (h *healthCb) complete(res Result) {
	fin, sh, r := h.fin, h.sh, h.r
	h.fin, h.sh = nil, nil
	r.hcPool.Put(h)
	r.recordOutcome(sh, res.Err)
	fin.complete(res)
}

// getHealthCb draws a pooled wrapper, binding its callback on pool miss.
func (r *Registry) getHealthCb() *healthCb {
	if h, ok := r.hcPool.Get().(*healthCb); ok {
		return h
	}
	h := &healthCb{r: r}
	h.cb = h.complete
	return h
}

// putHealthCb recycles a wrapper whose submission never committed.
func (r *Registry) putHealthCb(h *healthCb) {
	h.fin, h.sh = nil, nil
	r.hcPool.Put(h)
}

// recordOutcome scores one completed job against its shard: successes clear
// the consecutive count (and reclose a half-open breaker), hard failures
// extend it, and every outcome feeds the failure-rate EWMA. Deadline sheds
// are soft — they signal backlog concentrating on the shard (a stuck shard's
// queue fills while work-stealing routes around it), so they move the rate
// but never a half-open probe or the consecutive run.
func (r *Registry) recordOutcome(sh *shard, err error) {
	if err == nil {
		sh.noteEWMA(false)
		sh.consec.Store(0)
		if BreakerState(sh.state.Load()) == BreakerHalfOpen {
			r.recloseShard(sh)
		}
		return
	}
	sh.noteEWMA(true)
	if errors.Is(err, ErrDeadlineExceeded) {
		if BreakerState(sh.state.Load()) == BreakerClosed && r.rateTripped(sh) {
			r.tripShard(sh, int32(BreakerClosed))
		}
		return
	}
	n := sh.consec.Add(1)
	switch BreakerState(sh.state.Load()) {
	case BreakerHalfOpen:
		// The probe failed: reopen with a doubled cooldown.
		r.tripShard(sh, int32(BreakerHalfOpen))
	case BreakerClosed:
		if int(n) >= r.breaker.Threshold || r.rateTripped(sh) {
			r.tripShard(sh, int32(BreakerClosed))
		}
	}
}

// rateTripped reports whether the shard's failure-rate EWMA alone warrants
// a trip (enough samples, level at or above the configured rate).
func (r *Registry) rateTripped(sh *shard) bool {
	return sh.samples.Load() >= ewmaMinSamples &&
		sh.failureRate() >= breakerFailureRate
}

// tripShard moves a shard from the given state to open, arming the cooldown
// (doubling per consecutive trip, capped) and kicking the supervisor.
func (r *Registry) tripShard(sh *shard, from int32) {
	if !sh.state.CompareAndSwap(from, int32(BreakerOpen)) {
		return // another outcome raced the trip; exactly one wins
	}
	sh.trips.Add(1)
	ct := sh.consecTrips.Add(1)
	cooldown := r.breaker.Cooldown
	for i := int32(1); i < ct && cooldown < r.breaker.CooldownMax; i++ {
		cooldown *= 2
	}
	if cooldown > r.breaker.CooldownMax {
		cooldown = r.breaker.CooldownMax
	}
	sh.openUntil.Store(r.now().Add(cooldown).UnixNano())
	select {
	case r.superKick <- struct{}{}:
	default:
	}
}

// recloseShard resets a shard to closed after a successful probe (or a
// rebuild): health scoring starts fresh.
func (r *Registry) recloseShard(sh *shard) {
	sh.consec.Store(0)
	sh.consecTrips.Store(0)
	sh.ewma.Store(0)
	sh.samples.Store(0)
	sh.state.Store(int32(BreakerClosed))
}

// supervise is the self-healing loop: woken by trips (and a periodic rescan
// for backoff expiry), it rebuilds shards whose consecutive-trip count marks
// them persistently broken. One goroutine per registry; stopped by Close
// before the engines are released.
func (r *Registry) supervise() {
	defer close(r.superDone)
	for {
		select {
		case <-r.superStop:
			return
		case <-r.superKick:
		case <-time.After(r.breaker.Cooldown):
		}
		for _, id := range r.ids {
			e := r.entries[id]
			set := e.cur.Load()
			for _, sh := range set.shards {
				if BreakerState(sh.state.Load()) == BreakerOpen &&
					int(sh.consecTrips.Load()) >= r.breaker.RebuildAfter &&
					!r.now().Before(sh.rebuildAt) {
					r.rebuildShard(e, set, sh)
				}
			}
		}
	}
}

// rebuildShard replaces one persistently-broken shard's engine with a fresh
// build from the model package. It serializes with Swap (and Close) on the
// entry's smu and re-checks that the set is still current afterwards — a
// concurrent Swap wins, and the retired set's engines are released exactly
// once, by Swap. The broken engine is closed only after its replacement is
// installed, so accepted work drains (zero drop) and new dispatches land on
// the fresh engine.
func (r *Registry) rebuildShard(e *modelEntry, set *shardSet, sh *shard) {
	e.smu.Lock()
	defer e.smu.Unlock()
	if e.cur.Load() != set || set.retired.Load() {
		return // a swap replaced the set: nothing of ours left to heal
	}
	if BreakerState(sh.state.Load()) != BreakerOpen {
		return // a probe reclosed it while we were queued on smu
	}
	eng, err := r.factory(set.model, r.cfg.Server)
	if err != nil {
		// Capped exponential backoff between rebuild attempts.
		if sh.rebuildDelay <= 0 {
			sh.rebuildDelay = r.breaker.Cooldown
		} else {
			sh.rebuildDelay *= 2
		}
		if sh.rebuildDelay > r.breaker.CooldownMax {
			sh.rebuildDelay = r.breaker.CooldownMax
		}
		sh.rebuildAt = r.now().Add(sh.rebuildDelay)
		return
	}
	old := sh.setEngine(eng)
	sh.gen.Add(1)
	sh.rebuilds.Add(1)
	sh.rebuildDelay, sh.rebuildAt = 0, time.Time{}
	r.recloseShard(sh)
	// Drain contract: every submission the broken engine accepted completes
	// before Close returns — the rebuild drops nothing.
	old.Close()
}

// OverloadConfig parameterizes the queue-delay admission controller, which
// is always on; the zero value uses the defaults below.
type OverloadConfig struct {
	// Target is the acceptable queue sojourn time (CoDel-style): dispatch
	// delay at or below it is healthy. <= 0 means DefaultOverloadTarget.
	Target time.Duration
}

// DefaultOverloadTarget is the acceptable queue sojourn when
// OverloadConfig.Target is unset.
const DefaultOverloadTarget = 5 * time.Millisecond

// defaultOverloadWindow is how long sojourn must stay above Target before
// the controller declares overload and starts shedding over-share tenants
// (Registry.overloadWindow).
const defaultOverloadWindow = 25 * time.Millisecond

// withDefaults resolves unset overload knobs.
func (o OverloadConfig) withDefaults() OverloadConfig {
	if o.Target <= 0 {
		o.Target = DefaultOverloadTarget
	}
	return o
}

// Computed retry-after clamp: at least the wire's millisecond granularity,
// at most a bound that keeps a mis-measured service rate from idling
// clients for minutes.
const (
	minRetryAfter = time.Millisecond
	maxRetryAfter = 2 * time.Second
)

// ErrOverloaded reports a submission shed by the queue-delay controller:
// the tenant was consuming more than its fair share while dispatch sojourn
// stayed above target. The concrete error is an *OverloadError carrying the
// computed retry-after; the wire face is CodeUnavailable with that hint.
var ErrOverloaded = errors.New("core: shed by overload control")

// OverloadError is the concrete overload shed; errors.Is(err, ErrOverloaded)
// matches it.
type OverloadError struct {
	// RetryAfter is the computed backlog-drain estimate.
	RetryAfter time.Duration
}

// Error returns the overload message.
func (e *OverloadError) Error() string { return ErrOverloaded.Error() }

// Is matches ErrOverloaded.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// TenantBusyError is the concrete admission rejection: errors.Is(err,
// ErrTenantBusy) matches it, and RetryAfter carries the computed
// backlog-drain estimate (service-rate EWMA × queue depth) instead of a
// config constant.
type TenantBusyError struct {
	// RetryAfter is the computed backoff hint.
	RetryAfter time.Duration
}

// Error returns the busy message.
func (e *TenantBusyError) Error() string { return ErrTenantBusy.Error() }

// Is matches ErrTenantBusy, so callers keep writing errors.Is(err,
// ErrTenantBusy).
func (e *TenantBusyError) Is(target error) bool { return target == ErrTenantBusy }

// noteServiceLocked folds one dispatch interval into the service-rate EWMA
// (alpha = 1/8); the caller holds amu. Only backlogged intervals count —
// lastPop is zeroed when the dispatcher idles, so think time between bursts
// never inflates the estimate.
func (r *Registry) noteServiceLocked(now time.Time) {
	if !r.lastPop.IsZero() {
		if iv := now.Sub(r.lastPop); iv > 0 {
			if r.svcEWMA == 0 {
				r.svcEWMA = iv
			} else {
				r.svcEWMA += (iv - r.svcEWMA) / 8
			}
		}
	}
	r.lastPop = now
}

// retryAfterLocked computes the BUSY hint from live state: the measured
// per-job service interval times the current backlog, clamped. The caller
// holds amu.
func (r *Registry) retryAfterLocked() time.Duration {
	svc := r.svcEWMA
	if svc <= 0 {
		svc = minRetryAfter
	}
	d := time.Duration(r.backlog+1) * svc
	if d < minRetryAfter {
		d = minRetryAfter
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// overShareSlack is the absolute headroom in the over-share comparison:
// small transient imbalances between near-equal tenants never read as
// over-share.
const overShareSlack = 4.0

// overShareLocked reports whether a tenant holding depth queued jobs is
// consuming far beyond its fair share: its weight-normalized backlog
// exceeds twice the largest normalized backlog among the OTHER active
// tenants (plus slack). The comparison is deliberately relative — a lone
// backlogged tenant is never over-share (there is nobody to be unfair to),
// and near-equal tenants never shed each other. The caller holds amu.
func (r *Registry) overShareLocked(t *tenantState, depth int) bool {
	maxOther := -1.0
	for _, a := range r.active {
		if a == t || a.depth() == 0 {
			continue
		}
		if n := float64(a.depth()) / float64(a.weight); n > maxOther {
			maxOther = n
		}
	}
	if maxOther < 0 {
		return false
	}
	return float64(depth)/float64(t.weight) > 2*maxOther+overShareSlack
}

// overloadObserveLocked updates the queue-delay controller with one popped
// job's sojourn: at or under target clears overload, persistently above
// target for a full window declares it. Shedding itself happens only at
// admission (Submit) — already-admitted work is never dropped, preserving
// the registry's zero-drop contract. The caller holds amu.
func (r *Registry) overloadObserveLocked(sojourn time.Duration, now time.Time) {
	if sojourn <= r.overload.Target {
		r.aboveSince = time.Time{}
		r.overloaded = false
		return
	}
	if r.aboveSince.IsZero() {
		r.aboveSince = now
		return
	}
	if !r.overloaded && now.Sub(r.aboveSince) >= r.overloadWindow {
		r.overloaded = true
	}
}
