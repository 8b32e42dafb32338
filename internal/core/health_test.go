package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tflm"
)

// fakeHealthEngine is a synchronous Engine double for breaker tests: it
// completes every submission inline, failing with ErrWorkerPanic while its
// fail switch is on, and counts Close calls so release discipline (exactly
// once, never twice) is assertable.
type fakeHealthEngine struct {
	fail   *atomic.Bool
	slow   time.Duration
	closed atomic.Int32
}

func (f *fakeHealthEngine) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	return f.TrySubmitFuncDeadline(samples, deadline, fn)
}

func (f *fakeHealthEngine) TrySubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	if f.closed.Load() > 0 {
		return ErrServerClosed
	}
	if f.slow > 0 {
		time.Sleep(f.slow)
	}
	if f.fail != nil && f.fail.Load() {
		fn(Result{Label: -1, Err: fmt.Errorf("%w: injected", ErrWorkerPanic)})
		return nil
	}
	fn(Result{Label: 7})
	return nil
}

func (f *fakeHealthEngine) OpenStream() (*Stream, error) {
	return nil, errors.New("fakeHealthEngine: no streams")
}

func (f *fakeHealthEngine) Workers() int     { return 1 }
func (f *fakeHealthEngine) LiveWorkers() int { return 1 }
func (f *fakeHealthEngine) Close()           { f.closed.Add(1) }

// fakeEngineFleet builds fakeHealthEngines and remembers every one, so a
// test can flip individual shards' failure switches and audit Close counts.
type fakeEngineFleet struct {
	mu      sync.Mutex
	built   []*fakeHealthEngine
	failAll atomic.Bool
	slow    time.Duration
}

func (fl *fakeEngineFleet) factory(model *tflm.Model, cfg ServerConfig) (Engine, error) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	e := &fakeHealthEngine{fail: &fl.failAll, slow: fl.slow}
	fl.built = append(fl.built, e)
	return e, nil
}

// engines returns a snapshot of every engine built so far.
func (fl *fakeEngineFleet) engines() []*fakeHealthEngine {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return append([]*fakeHealthEngine(nil), fl.built...)
}

// submitWait pushes one job through the registry and returns its result.
func submitWait(t *testing.T, reg *Registry, model string) Result {
	t.Helper()
	done := make(chan Result, 1)
	if err := reg.Submit(model, "t", []int16{1}, time.Time{}, func(r Result) { done <- r }); err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("submit result never delivered")
		return Result{}
	}
}

// shardStatus extracts one shard's status from a Health snapshot.
func shardStatus(t *testing.T, reg *Registry, model string, shard int) ShardStatus {
	t.Helper()
	for _, mh := range reg.Health() {
		if mh.Model == model {
			if shard >= len(mh.Shards) {
				t.Fatalf("model %q has %d shards, want index %d", model, len(mh.Shards), shard)
			}
			return mh.Shards[shard]
		}
	}
	t.Fatalf("model %q not in health snapshot", model)
	return ShardStatus{}
}

// TestBreakerTripsAndRecloses drives a per-shard failure run past the
// consecutive threshold, asserts the breaker opens (and the registry keeps
// serving on the survivor), then lets a half-open probe succeed and asserts
// the breaker recloses with scoring reset.
func TestBreakerTripsAndRecloses(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &fakeEngineFleet{}
	reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, RegistryConfig{
		Shards: 2,
		Engine: fleet.factory,
		Breaker: BreakerConfig{
			Threshold:    3,
			Cooldown:     2 * time.Millisecond,
			CooldownMax:  20 * time.Millisecond,
			RebuildAfter: 1000, // keep the supervisor out of this test
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// Fail everything until some shard's breaker opens. Round-robin spreads
	// the failures, so both shards trip eventually; wait for the first.
	fleet.failAll.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	tripped := -1
	for tripped < 0 {
		if time.Now().After(deadline) {
			t.Fatal("no breaker opened under persistent failures")
		}
		r := submitWait(t, reg, "m")
		if r.Err == nil {
			t.Fatal("failing engine produced a success")
		}
		for i := 0; i < 2; i++ {
			if st := shardStatus(t, reg, "m", i); st.State != BreakerClosed {
				tripped = i
			}
		}
	}
	st := shardStatus(t, reg, "m", tripped)
	if st.Trips == 0 {
		t.Fatalf("shard %d open with zero recorded trips: %+v", tripped, st)
	}

	// Heal the engines: probes must reclose every shard and reset scoring.
	fleet.failAll.Store(false)
	for time.Now().Before(deadline) {
		if r := submitWait(t, reg, "m"); r.Err != nil {
			t.Fatalf("healed engine failed: %v", r.Err)
		}
		healthy := true
		for i := 0; i < 2; i++ {
			if st := shardStatus(t, reg, "m", i); st.State != BreakerClosed || st.ConsecutiveFailures != 0 {
				healthy = false
			}
		}
		if healthy {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("breakers never reclosed after failures stopped")
}

// TestSupervisorRebuildsBrokenShard lets a persistently-failing shard trip
// repeatedly until the supervisor rebuilds its engine from the model, then
// asserts the fresh engine serves, the broken one was released exactly
// once, and the rebuild is visible in the health snapshot.
func TestSupervisorRebuildsBrokenShard(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &fakeEngineFleet{}
	// The first engine fails forever; rebuilds produce healthy engines.
	var firstBroken atomic.Bool
	firstBroken.Store(true)
	factory := func(m *tflm.Model, cfg ServerConfig) (Engine, error) {
		eng, _ := fleet.factory(m, cfg)
		fe := eng.(*fakeHealthEngine)
		if len(fleet.engines()) == 1 {
			fe.fail = &firstBroken
		} else {
			fe.fail = nil
		}
		return fe, nil
	}
	reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, RegistryConfig{
		Shards: 1,
		Engine: factory,
		Breaker: BreakerConfig{
			Threshold:    2,
			Cooldown:     time.Millisecond,
			CooldownMax:  10 * time.Millisecond,
			RebuildAfter: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never rebuilt the broken shard: %+v", shardStatus(t, reg, "m", 0))
		}
		submitWait(t, reg, "m") // traffic drives trips and probes
		if st := shardStatus(t, reg, "m", 0); st.Rebuilds >= 1 {
			break
		}
	}
	// The rebuilt engine serves, and the shard recloses.
	recovered := false
	for time.Now().Before(deadline) {
		r := submitWait(t, reg, "m")
		st := shardStatus(t, reg, "m", 0)
		if r.Err == nil && st.State == BreakerClosed && st.Gen >= 1 {
			recovered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		t.Fatalf("rebuilt shard never served cleanly: %+v", shardStatus(t, reg, "m", 0))
	}
	engines := fleet.engines()
	if len(engines) < 2 {
		t.Fatalf("rebuild recorded but only %d engines ever built", len(engines))
	}
	if got := engines[0].closed.Load(); got != 1 {
		t.Fatalf("broken engine closed %d times, want exactly 1", got)
	}
}

// TestSwapWinsBreakerRebuildRace races hot swaps against breaker trips and
// supervisor rebuilds on the same model (satellite: swap wins, no
// double-release). Run under -race by default `go test`. At the end every
// engine ever built must have been closed exactly once.
func TestSwapWinsBreakerRebuildRace(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &fakeEngineFleet{}
	reg, signer := signedRegistry(t, model, RegistryConfig{
		Shards: 2,
		Engine: fleet.factory,
		Breaker: BreakerConfig{
			Threshold:    1,
			Cooldown:     time.Millisecond,
			CooldownMax:  4 * time.Millisecond,
			RebuildAfter: 1,
		},
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Failure storm: flip the global failure switch fast enough that trips,
	// probes, and rebuilds all interleave with the swap loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fleet.failAll.Store(i%2 == 0)
			time.Sleep(500 * time.Microsecond)
		}
	}()
	// Traffic keeps outcomes flowing so breakers actually trip.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var inner sync.WaitGroup
		for {
			select {
			case <-stop:
				inner.Wait()
				return
			default:
			}
			inner.Add(1)
			err := reg.Submit("kws", "t", []int16{1}, time.Time{}, func(Result) { inner.Done() })
			if err != nil {
				inner.Done()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	const swaps = 25
	for v := uint64(2); v < 2+swaps; v++ {
		pkg, err := signer.Package("kws", v, model)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Swap("kws", pkg); err != nil {
			t.Fatalf("swap v%d: %v", v, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if v, _ := reg.ModelVersion("kws"); v != 1+swaps {
		t.Fatalf("version %d after %d swaps, want %d", v, swaps, 1+swaps)
	}
	reg.Close()

	// Release discipline: every engine ever built — initial set, swap sets,
	// supervisor rebuilds — is closed exactly once, by exactly one owner.
	for i, e := range fleet.engines() {
		if got := e.closed.Load(); got != 1 {
			t.Fatalf("engine %d closed %d times, want exactly 1 (double release or leak)", i, got)
		}
	}
}

// TestOverloadShedsOverShareTenant floods one tenant through a slow engine
// until the queue-delay controller declares overload, then asserts (a) the
// flooding tenant is shed at admission with a computed retry-after, (b) the
// light tenant is never overload-shed, and (c) no already-admitted job is
// dropped by the controller.
func TestOverloadShedsOverShareTenant(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &fakeEngineFleet{slow: time.Millisecond}
	reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, RegistryConfig{
		Shards:        1,
		Engine:        fleet.factory,
		DefaultTenant: TenantConfig{MaxQueue: 1024},
		Overload: OverloadConfig{
			Target: 500 * time.Microsecond,
			Window: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var admitted sync.WaitGroup
	var dropped atomic.Uint64
	var lightOut atomic.Int64 // light tenant's outstanding jobs, kept small
	var floodShed int
	var hint time.Duration
	deadline := time.Now().Add(10 * time.Second)
	for floodShed == 0 && time.Now().Before(deadline) {
		// Flood tenant: pour in work far beyond its fair share.
		for i := 0; i < 32; i++ {
			admitted.Add(1)
			err := reg.Submit("m", "flood", []int16{1}, time.Time{}, func(r Result) {
				defer admitted.Done()
				if r.Err != nil {
					dropped.Add(1)
				}
			})
			if err != nil {
				admitted.Done()
				if errors.Is(err, ErrOverloaded) {
					floodShed++
					var oe *OverloadError
					if !errors.As(err, &oe) {
						t.Fatalf("overload shed is %T, want *OverloadError", err)
					}
					hint = oe.RetryAfter
				} else if !errors.Is(err, ErrTenantBusy) {
					t.Fatalf("flood submit: %v", err)
				}
			}
		}
		// Light tenant: a small steady backlog, never over fair share.
		if lightOut.Load() < 8 {
			admitted.Add(1)
			lightOut.Add(1)
			err := reg.Submit("m", "light", []int16{1}, time.Time{}, func(r Result) {
				defer admitted.Done()
				lightOut.Add(-1)
				if r.Err != nil {
					dropped.Add(1)
				}
			})
			if err != nil {
				admitted.Done()
				lightOut.Add(-1)
				if errors.Is(err, ErrOverloaded) {
					t.Fatal("light tenant shed by overload control while under fair share")
				}
				if !errors.Is(err, ErrTenantBusy) {
					t.Fatalf("light submit: %v", err)
				}
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	admitted.Wait()
	if floodShed == 0 {
		t.Fatal("queue-delay controller never shed the flooding tenant")
	}
	if hint < time.Millisecond {
		t.Fatalf("overload retry-after hint %v, want >= 1ms (computed from backlog)", hint)
	}
	if n := dropped.Load(); n != 0 {
		t.Fatalf("%d admitted jobs dropped; overload control must only refuse at admission", n)
	}
}

// TestBusyHintComputedFromBacklog fills a tiny tenant queue behind a slow
// engine and asserts the hard-cap rejection carries a computed, nonzero
// retry-after (TenantBusyError), not a bare sentinel.
func TestBusyHintComputedFromBacklog(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &fakeEngineFleet{slow: 2 * time.Millisecond}
	reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, RegistryConfig{
		Shards:        1,
		Engine:        fleet.factory,
		DefaultTenant: TenantConfig{MaxQueue: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var wg sync.WaitGroup
	var busy *TenantBusyError
	deadline := time.Now().Add(5 * time.Second)
	for busy == nil && time.Now().Before(deadline) {
		wg.Add(1)
		err := reg.Submit("m", "t", []int16{1}, time.Time{}, func(Result) { wg.Done() })
		if err != nil {
			wg.Done()
			if !errors.Is(err, ErrTenantBusy) {
				t.Fatalf("submit: %v", err)
			}
			if !errors.As(err, &busy) {
				t.Fatalf("busy rejection is %T, want *TenantBusyError", err)
			}
		}
	}
	wg.Wait()
	if busy == nil {
		t.Fatal("queue never filled")
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("busy retry-after %v, want > 0", busy.RetryAfter)
	}
}

// fakeClock is a manually advanced Registry clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// gatedEngine never has queue room for a non-blocking submit, and holds each
// blocking submit until the test opens the gate, so the dispatcher pops the
// next job only when the test says so. entered reports each blocking submit,
// which the dispatcher makes after it has stamped and observed the job.
type gatedEngine struct {
	fakeHealthEngine
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedEngine) TrySubmitFuncDeadline([]int16, time.Time, func(Result)) error {
	return ErrQueueFull
}

func (g *gatedEngine) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	g.entered <- struct{}{}
	<-g.gate
	fn(Result{Label: 7})
	return nil
}

// TestOverloadShedsOnFakeClock drives the queue-delay controller on a fake
// clock: sojourn above Target sheds nothing until it has lasted a full
// Window; then the over-share tenant is refused at admission with
// ErrOverloaded, the light tenant is still admitted, and every admitted job
// completes without error.
func TestOverloadShedsOnFakeClock(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	const target, window = 5 * time.Millisecond, 25 * time.Millisecond
	// entered holds more reports than the test admits jobs, so once the
	// gate opens the dispatcher drains the backlog without a reader.
	eng := &gatedEngine{entered: make(chan struct{}, 64), gate: make(chan struct{})}
	reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, RegistryConfig{
		Shards:        1,
		Engine:        func(*tflm.Model, ServerConfig) (Engine, error) { return eng, nil },
		DefaultTenant: TenantConfig{MaxQueue: 64},
		Overload:      OverloadConfig{Target: target, Window: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: time.Unix(1, 0)}
	reg.now = clk.now
	defer reg.Close()
	openGate := sync.OnceFunc(func() { close(eng.gate) })
	defer openGate() // runs before Close, which drains through the engine

	var admitted sync.WaitGroup
	var failed atomic.Uint64
	submit := func(tenant string) error {
		admitted.Add(1)
		err := reg.Submit("m", tenant, []int16{1}, time.Time{}, func(r Result) {
			if r.Err != nil {
				failed.Add(1)
			}
			admitted.Done()
		})
		if err != nil {
			admitted.Done()
		}
		return err
	}
	mustAdmit := func(tenant string) {
		t.Helper()
		if err := submit(tenant); err != nil {
			t.Fatalf("%s submit: %v", tenant, err)
		}
	}
	// step releases the job the dispatcher holds and waits until it has
	// popped and observed the next one. DRR alternates the two tenants.
	step := func() {
		eng.gate <- struct{}{}
		<-eng.entered
	}

	// The dispatcher takes flood's first job at once (zero sojourn) and
	// blocks in the engine; a backlog builds behind it at the same instant.
	mustAdmit("flood")
	<-eng.entered
	for i := 0; i < 3; i++ {
		mustAdmit("light")
	}
	for i := 0; i < 20; i++ {
		mustAdmit("flood")
	}

	// Light's first job: the first above-target sojourn starts the run.
	clk.advance(target + time.Millisecond)
	step()
	mustAdmit("flood")
	// Flood, then light, just short of a full window: nothing is shed.
	clk.advance(window - time.Millisecond)
	step()
	mustAdmit("flood")
	step()
	mustAdmit("flood")
	// Flood at a full window above target: overload. The tenant holding
	// the backlog is refused at admission; light, queued under its share,
	// is not.
	clk.advance(time.Millisecond)
	step()
	err = submit("flood")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("flood submit after a full window above target: %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter < minRetryAfter {
		t.Fatalf("overload shed %#v, want *OverloadError with a retry-after", err)
	}
	mustAdmit("light")

	openGate()
	admitted.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d admitted jobs failed; overload control must only refuse at admission", n)
	}
}

// TestRegistryDispatchAllocFree pins the admission path (Submit, the DRR
// ring, the dispatcher and the pooled breaker callback) at zero allocations
// per job, with a preallocated completion func and an engine that completes
// inline.
func TestRegistryDispatchAllocFree(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	fleet := &fakeEngineFleet{}
	reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, RegistryConfig{
		Shards: 1,
		Engine: fleet.factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	samples := []int16{1}
	done := make(chan struct{}, 1)
	fn := func(Result) { done <- struct{}{} }
	submit := func() {
		if err := reg.Submit("m", "t", samples, time.Time{}, fn); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	for i := 0; i < 8; i++ { // warm the tenant queue, the ring and the pool
		submit()
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs > 0 {
		t.Fatalf("registry dispatch allocates %.2f objects/job, want 0", allocs)
	}
}

// heldEngine parks every submission's callback until the test releases it,
// so a half-open probe stays in flight.
type heldEngine struct {
	fakeHealthEngine
	held chan func(Result)
}

func (h *heldEngine) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	return h.TrySubmitFuncDeadline(samples, deadline, fn)
}

func (h *heldEngine) TrySubmitFuncDeadline(_ []int16, _ time.Time, fn func(Result)) error {
	h.held <- fn
	return nil
}

// TestRegistryFakeClock drives the registry's time-dependent paths on a
// fake clock that starts at the real time and then runs ahead of it: an
// open breaker admits no work until the fake clock passes its cooldown,
// then exactly one half-open probe; and an admitted job whose deadline
// passes on the fake clock is shed at dispatch. Real time reaches neither
// instant during the test, so both checks hold only if the registry reads
// its own clock.
func TestRegistryFakeClock(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	newReg := func(t *testing.T, cfg RegistryConfig) (*Registry, *fakeClock) {
		t.Helper()
		reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: time.Now()}
		reg.now = clk.now
		return reg, clk
	}

	t.Run("breaker cooldown", func(t *testing.T) {
		const cooldown = time.Hour
		probe := &heldEngine{held: make(chan func(Result), 8)}
		var built atomic.Int32
		reg, clk := newReg(t, RegistryConfig{
			Shards: 2,
			Engine: func(*tflm.Model, ServerConfig) (Engine, error) {
				if built.Add(1) == 1 {
					return probe, nil // shard 0
				}
				return &fakeHealthEngine{}, nil
			},
			Breaker: BreakerConfig{Cooldown: cooldown, CooldownMax: cooldown, RebuildAfter: 1000},
		})
		defer reg.Close()
		reg.tripShard(reg.entries["m"].cur.Load().shards[0], int32(BreakerClosed))

		// Every job before the cooldown lands on the healthy shard.
		healthyOnly := func() {
			t.Helper()
			for i := 0; i < 4; i++ {
				if r := submitWait(t, reg, "m"); r.Err != nil || r.Label != 7 {
					t.Fatalf("job %d: %+v, want label 7 from the healthy shard", i, r)
				}
			}
			if n := len(probe.held); n != 0 {
				t.Fatalf("open shard admitted %d jobs inside its cooldown", n)
			}
		}
		healthyOnly()
		clk.advance(cooldown - time.Nanosecond)
		healthyOnly()
		if s := shardStatus(t, reg, "m", 0); s.State != BreakerOpen {
			t.Fatalf("shard 0 %v just before its cooldown ends, want open", s.State)
		}

		// Past the cooldown the rotation reaches shard 0 within two jobs:
		// one probe is admitted and held, every other job goes to shard 1.
		clk.advance(time.Nanosecond)
		res := make(chan Result, 8)
		const jobs = 6
		for i := 0; i < jobs; i++ {
			if err := reg.Submit("m", "t", []int16{1}, time.Time{}, func(r Result) { res <- r }); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < jobs-1; i++ {
			if r := <-res; r.Err != nil || r.Label != 7 {
				t.Fatalf("job beside the probe: %+v, want label 7", r)
			}
		}
		if s := shardStatus(t, reg, "m", 0); s.State != BreakerHalfOpen {
			t.Fatalf("shard 0 %v with its probe in flight, want half-open", s.State)
		}
		if n := len(probe.held); n != 1 {
			t.Fatalf("shard 0 admitted %d jobs after its cooldown, want one probe", n)
		}
		(<-probe.held)(Result{Label: 9})
		if r := <-res; r.Err != nil || r.Label != 9 {
			t.Fatalf("probe result %+v, want label 9", r)
		}
		if s := shardStatus(t, reg, "m", 0); s.State != BreakerClosed {
			t.Fatalf("shard 0 %v after a successful probe, want closed", s.State)
		}
	})

	t.Run("dispatch deadline", func(t *testing.T) {
		eng := &gatedEngine{entered: make(chan struct{}, 8), gate: make(chan struct{})}
		reg, clk := newReg(t, RegistryConfig{
			Shards: 1,
			Engine: func(*tflm.Model, ServerConfig) (Engine, error) { return eng, nil },
		})
		defer reg.Close()
		openGate := sync.OnceFunc(func() { close(eng.gate) })
		defer openGate() // runs before Close, which drains through the engine

		res := make(chan Result, 2)
		fn := func(r Result) { res <- r }
		deadline := clk.now().Add(time.Minute)
		// The first job holds the dispatcher in the engine; the second,
		// with the same deadline, queues behind it while the fake clock
		// passes that deadline.
		if err := reg.Submit("m", "t", []int16{1}, deadline, fn); err != nil {
			t.Fatal(err)
		}
		<-eng.entered
		if err := reg.Submit("m", "t", []int16{1}, deadline, fn); err != nil {
			t.Fatal(err)
		}
		clk.advance(2 * time.Minute)
		openGate()
		if r := <-res; r.Err != nil || r.Label != 7 {
			t.Fatalf("job dispatched before its deadline: %+v, want label 7", r)
		}
		if r := <-res; !errors.Is(r.Err, ErrDeadlineExceeded) {
			t.Fatalf("job queued past its deadline: %+v, want ErrDeadlineExceeded", r)
		}
		if c := reg.TenantCounters("t"); c.Shed != 1 || c.Dispatched != 1 {
			t.Fatalf("counters %+v, want one shed and one dispatched", c)
		}
	})
}
