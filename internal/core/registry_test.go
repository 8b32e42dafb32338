package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tflm"
)

// registryFixture builds two models whose classifications differ on the
// fixture utterances (distinct weight seeds), so a test can tell from a
// label which model generation served a request.
func registryFixture(t testing.TB, n int) (oldM, newM *tflm.Model, utts [][]int16, oldLabels, newLabels []int) {
	t.Helper()
	oldM, utts, _ = pipelineFixture(t, n)
	var err error
	newM, err = tflm.BuildRandomTinyConv(1, 77)
	if err != nil {
		t.Fatal(err)
	}
	oldLabels = serialResults(t, oldM, utts)
	newLabels = serialResults(t, newM, utts)
	diff := 0
	for i := range oldLabels {
		if oldLabels[i] != newLabels[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("fixture models classify identically; pick different seeds")
	}
	return oldM, newM, utts, oldLabels, newLabels
}

// registryAll classifies utts for (model, tenant) through Registry.Submit,
// all admitted before any is waited on, and returns one Result per
// utterance in order; an admission error is that utterance's Result.
func registryAll(reg *Registry, model, tenant string, utts [][]int16) []Result {
	results := make([]Result, len(utts))
	var wg sync.WaitGroup
	for i, u := range utts {
		wg.Add(1)
		if err := reg.Submit(model, tenant, u, time.Time{}, func(r Result) { results[i] = r; wg.Done() }); err != nil {
			results[i] = Result{Label: -1, Err: err}
			wg.Done()
		}
	}
	wg.Wait()
	return results
}

// signedRegistry builds a single-model registry with swap enabled and
// returns the vendor signer pinned to it.
func signedRegistry(t testing.TB, model *tflm.Model, cfg RegistryConfig) (*Registry, *SwapSigner) {
	t.Helper()
	signer, err := NewSwapSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(map[string]ModelConfig{
		"kws": {Model: model, Version: 1, VendorPub: signer.VendorPub(), Key: signer.Key()},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, signer
}

// TestRegistrySwapZeroDrop is the drain/swap race test (run under -race by
// `go test`): every request admitted before Swap is called must classify
// bit-exactly on the OLD model, every request admitted at any point must
// complete exactly once, and the goroutine count must return to baseline
// once the old shard set is released.
func TestRegistrySwapZeroDrop(t *testing.T) {
	oldM, newM, utts, oldLabels, newLabels := registryFixture(t, 16)

	settle := func(base int) bool {
		for i := 0; i < 100; i++ {
			if runtime.NumGoroutine() <= base {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}
	baseline := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		reg, signer := signedRegistry(t, oldM, RegistryConfig{
			Shards:        2,
			Server:        ServerConfig{Workers: 1, Queue: 1},
			DefaultTenant: TenantConfig{MaxQueue: 1024},
		})

		// Admit a backlog before swapping: tiny engine queues keep most of
		// it parked in the tenant queues, so the flush barrier does real
		// work rather than racing an empty queue.
		const n = 64
		type outcome struct {
			label int
			err   error
		}
		results := make([]outcome, n)
		fired := make([]atomic.Uint32, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			err := reg.Submit("kws", "tenant-a", utts[i%len(utts)], time.Time{}, func(r Result) {
				if fired[i].Add(1) != 1 {
					t.Errorf("request %d completed more than once", i)
				}
				results[i] = outcome{label: r.Label, err: r.Err}
				wg.Done()
			})
			if err != nil {
				t.Fatalf("round %d submit %d: %v", round, i, err)
			}
		}

		pkg, err := signer.Package("kws", uint64(round)+2, newM)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Swap("kws", pkg); err != nil {
			t.Fatalf("round %d swap: %v", round, err)
		}
		wg.Wait()

		for i := 0; i < n; i++ {
			if results[i].err != nil {
				t.Fatalf("round %d request %d lost: %v", round, i, results[i].err)
			}
			if want := oldLabels[i%len(utts)]; results[i].label != want {
				t.Fatalf("round %d request %d admitted before swap: label %d, want old-model %d",
					round, i, results[i].label, want)
			}
		}

		// New submissions route to the new generation.
		post := registryAll(reg, "kws", "tenant-a", utts)
		for i, r := range post {
			if r.Err != nil {
				t.Fatalf("post-swap %d: %v", i, r.Err)
			}
			if r.Label != newLabels[i] {
				t.Fatalf("post-swap %d: label %d, want new-model %d", i, r.Label, newLabels[i])
			}
		}
		if v, ok := reg.ModelVersion("kws"); !ok || v != uint64(round)+2 {
			t.Fatalf("round %d: version %d ok=%v, want %d", round, v, ok, round+2)
		}

		reg.Close()
		if !settle(baseline) {
			t.Fatalf("round %d: %d goroutines alive, baseline %d — old shard set leaked",
				round, runtime.NumGoroutine(), baseline)
		}
	}
}

// TestRegistrySwapUnderLoad loops hot swaps under sustained concurrent
// one-shot and stream load: zero admitted requests lost, every one-shot
// label matches one of the two generations bit-exactly, streams either
// deliver or report ErrModelSwapped, and shard health is full strength
// after the storm.
func TestRegistrySwapUnderLoad(t *testing.T) {
	oldM, newM, utts, oldLabels, newLabels := registryFixture(t, 8)
	reg, signer := signedRegistry(t, oldM, RegistryConfig{
		Shards:        2,
		Server:        ServerConfig{Workers: 2, Queue: 4},
		DefaultTenant: TenantConfig{MaxQueue: 256},
	})
	defer reg.Close()
	// A frozen controller clock: every job's sojourn reads zero, so a host
	// whose CPUs are contended by the rest of the suite cannot push the
	// queue-delay controller into shedding. The test's subject is the swap;
	// TestOverloadShedsOnFakeClock covers the controller.
	frozen := time.Now()
	reg.now = func() time.Time { return frozen }

	stop := make(chan struct{})
	var swapErr error
	var swapsDone sync.WaitGroup
	swapsDone.Add(1)
	go func() {
		defer swapsDone.Done()
		models := [2]*tflm.Model{newM, oldM}
		for v := uint64(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			pkg, err := signer.Package("kws", v, models[v%2])
			if err != nil {
				swapErr = err
				return
			}
			if err := reg.Swap("kws", pkg); err != nil {
				swapErr = err
				return
			}
		}
	}()

	var lost, completed atomic.Uint64
	var wrong atomic.Uint64
	var loadWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			var inner sync.WaitGroup
			for k := 0; k < 200; k++ {
				i := (g + k) % len(utts)
				inner.Add(1)
				err := reg.Submit("kws", fmt.Sprintf("tenant-%d", g%2), utts[i], time.Time{}, func(r Result) {
					defer inner.Done()
					if r.Err != nil {
						lost.Add(1)
						return
					}
					completed.Add(1)
					if r.Label != oldLabels[i] && r.Label != newLabels[i] {
						wrong.Add(1)
					}
				})
				if err != nil {
					// Admission backpressure is allowed; losing an ADMITTED
					// request is not.
					inner.Done()
					if !errors.Is(err, ErrTenantBusy) {
						t.Errorf("submit: %v", err)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
			inner.Wait()
		}(g)
	}

	// Stream load: keep a stream running across swaps; on ErrModelSwapped
	// reopen against the new generation.
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		chunk := utts[0][:4000]
		reopens := 0
		for k := 0; k < 300; k++ {
			st, err := reg.OpenStream("kws", "tenant-stream")
			if err != nil {
				t.Errorf("open stream: %v", err)
				return
			}
			var delivered atomic.Uint64
			st.OnResult(func(hop uint64, r Result) {
				if r.Err == nil {
					delivered.Add(1)
				}
			})
			for {
				if _, err := st.Submit(chunk); err != nil {
					if errors.Is(err, ErrModelSwapped) {
						reopens++
						break // expected: reopen on the new generation
					}
					t.Errorf("stream submit: %v", err)
					return
				}
				if st.Hops() > 8 {
					break
				}
			}
		}
		t.Logf("stream reopened %d times across swaps", reopens)
	}()

	loadWG.Wait()
	close(stop)
	swapsDone.Wait()
	if swapErr != nil {
		t.Fatalf("swap loop: %v", swapErr)
	}
	if n := lost.Load(); n != 0 {
		t.Fatalf("%d admitted requests lost under swap storm", n)
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d results matched neither generation bit-exactly", n)
	}
	if completed.Load() == 0 {
		t.Fatal("no requests completed")
	}
	if reg.Swaps() == 0 {
		t.Fatal("swap loop never completed a swap")
	}
	shards, workers, live := reg.ShardHealth("kws")
	if shards != 2 || workers == 0 || live != workers {
		t.Fatalf("shard health after storm: shards=%d live=%d/%d", shards, live, workers)
	}
	t.Logf("%d completed across %d swaps", completed.Load(), reg.Swaps())
}

// fakeEngine is a deterministic Engine double for fairness tests: one
// internal worker, a bounded queue, a fixed service time, and a constant
// label. OpenStream is unsupported.
type fakeEngine struct {
	service time.Duration
	jobs    chan fakeJob
	done    chan struct{}
	closed  chan struct{}
	mu      sync.Mutex
	shut    bool
}

type fakeJob struct {
	fn func(Result)
}

func newFakeEngine(queue int, service time.Duration) *fakeEngine {
	e := &fakeEngine{
		service: service,
		jobs:    make(chan fakeJob, queue),
		done:    make(chan struct{}),
		closed:  make(chan struct{}),
	}
	go func() {
		defer close(e.done)
		for j := range e.jobs {
			if e.service > 0 {
				time.Sleep(e.service)
			}
			j.fn(Result{Label: 1})
		}
	}()
	return e
}

// SubmitFuncDeadline blocks while the queue is full (Engine contract).
func (e *fakeEngine) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	select {
	case <-e.closed:
		return ErrServerClosed
	case e.jobs <- fakeJob{fn: fn}:
		return nil
	}
}

// TrySubmitFuncDeadline is the non-blocking form.
func (e *fakeEngine) TrySubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	select {
	case <-e.closed:
		return ErrServerClosed
	case e.jobs <- fakeJob{fn: fn}:
		return nil
	default:
		return ErrQueueFull
	}
}

// OpenStream is unsupported on the fake.
func (e *fakeEngine) OpenStream() (*Stream, error) { return nil, errors.New("fake: no streams") }

// Workers reports the single fake worker.
func (e *fakeEngine) Workers() int { return 1 }

// LiveWorkers reports the single fake worker while running.
func (e *fakeEngine) LiveWorkers() int {
	select {
	case <-e.done:
		return 0
	default:
		return 1
	}
}

// Close drains queued jobs and stops the worker.
func (e *fakeEngine) Close() {
	e.mu.Lock()
	if !e.shut {
		e.shut = true
		close(e.closed)
		close(e.jobs)
	}
	e.mu.Unlock()
	<-e.done
}

// runFairness saturates a registry (fake engines, fixed service time) with
// two tenants at ~10:1 offered load and returns completions per tenant
// once total reaches target.
func runFairness(t *testing.T, weights map[string]TenantConfig, target int) map[string]int {
	t.Helper()
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(map[string]ModelConfig{"kws": {Model: model}}, RegistryConfig{
		Shards: 1,
		Engine: func(m *tflm.Model, cfg ServerConfig) (Engine, error) {
			return newFakeEngine(1, 300*time.Microsecond), nil
		},
		Tenants: weights,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	var mu sync.Mutex
	counts := make(map[string]int)
	total := 0
	stop := make(chan struct{})
	var stopOnce sync.Once

	submitLoop := func(tenant string, pace time.Duration) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			reg.Submit("kws", tenant, nil, time.Time{}, func(r Result) {
				mu.Lock()
				counts[tenant]++
				total++
				if total >= target {
					stopOnce.Do(func() { close(stop) })
				}
				mu.Unlock()
			})
			if pace > 0 {
				time.Sleep(pace)
			}
		}
	}

	var wg sync.WaitGroup
	// Majority floods from 10 goroutines, minority offers from 1: a 10:1
	// offered-load ratio with both queues saturated.
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); submitLoop("big", 50*time.Microsecond) }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); submitLoop("small", 50*time.Microsecond) }()
	wg.Wait()
	reg.Close() // drain admitted tail before reading counters

	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]int, len(counts))
	for k, v := range counts {
		out[k] = v
	}
	return out
}

// TestRegistryFairnessEqualWeights: two tenants at 10:1 offered load with
// equal weights must each complete ~half of the work — the minority tenant
// within 20% of its 50% share (the ISSUE acceptance bound).
func TestRegistryFairnessEqualWeights(t *testing.T) {
	counts := runFairness(t, map[string]TenantConfig{
		"big":   {Weight: 1, MaxQueue: 64},
		"small": {Weight: 1, MaxQueue: 64},
	}, 1000)
	total := counts["big"] + counts["small"]
	share := float64(counts["small"]) / float64(total)
	t.Logf("equal weights: big=%d small=%d (small share %.2f)", counts["big"], counts["small"], share)
	if share < 0.5*0.8 {
		t.Fatalf("minority tenant got %.2f of completions, want >= %.2f (80%% of its 0.5 share)", share, 0.5*0.8)
	}
}

// TestRegistryFairnessWeighted: with weights 3:1 the DRR shares must track
// the configured ratio, minority within 20% of its 25% share.
func TestRegistryFairnessWeighted(t *testing.T) {
	counts := runFairness(t, map[string]TenantConfig{
		"big":   {Weight: 3, MaxQueue: 64},
		"small": {Weight: 1, MaxQueue: 64},
	}, 1000)
	total := counts["big"] + counts["small"]
	share := float64(counts["small"]) / float64(total)
	t.Logf("weights 3:1: big=%d small=%d (small share %.2f)", counts["big"], counts["small"], share)
	if share < 0.25*0.8 {
		t.Fatalf("minority tenant got %.2f of completions, want >= %.2f (80%% of its 0.25 share)", share, 0.25*0.8)
	}
	// The majority must also benefit from its larger weight: strictly more
	// than an equal split.
	if counts["big"] <= counts["small"] {
		t.Fatalf("weight-3 tenant (%d) did not out-complete weight-1 tenant (%d)", counts["big"], counts["small"])
	}
}

// TestRegistryAdmission covers the admission edge cases: per-tenant BUSY at
// the queue cap with counters, unknown model, and closed registry.
func TestRegistryAdmission(t *testing.T) {
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	reg, err := NewRegistry(map[string]ModelConfig{"kws": {Model: model}}, RegistryConfig{
		Engine: func(m *tflm.Model, cfg ServerConfig) (Engine, error) {
			// Stall the engine behind a gate so tenant queues actually fill.
			return &stalledEngine{fakeEngine: newFakeEngine(1, 0), gate: gate}, nil
		},
		Tenants: map[string]TenantConfig{"t": {Weight: 1, MaxQueue: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := reg.Submit("nope", "t", nil, time.Time{}, func(Result) {}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := reg.OpenStream("nope", "t"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model stream: %v", err)
	}

	// Fill: engine accepts one job and stalls; queue cap 4. The dispatcher
	// may hold one job in flight, so admit until BUSY appears.
	var done sync.WaitGroup
	busy := 0
	admitted := 0
	for i := 0; i < 32; i++ {
		done.Add(1)
		err := reg.Submit("kws", "t", nil, time.Time{}, func(Result) { done.Done() })
		if err != nil {
			done.Done()
			if !errors.Is(err, ErrTenantBusy) {
				t.Fatalf("submit %d: %v", i, err)
			}
			busy++
		} else {
			admitted++
		}
	}
	if busy == 0 {
		t.Fatal("queue cap 4 never produced ErrTenantBusy over 32 submissions")
	}
	c := reg.TenantCounters("t")
	if c.Accepted != uint64(admitted) || c.Busy != uint64(busy) {
		t.Fatalf("counters %+v, want accepted=%d busy=%d", c, admitted, busy)
	}
	close(gate)
	done.Wait()
	// The dispatched counter increments on the dispatcher goroutine just
	// after the engine accepts the job, so it can trail the last callback
	// by an instant — poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c := reg.TenantCounters("t")
		if c.Dispatched == uint64(admitted) && c.Shed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after drain: %+v, want dispatched=%d shed=0", c, admitted)
		}
		time.Sleep(time.Millisecond)
	}

	reg.Close()
	if err := reg.Submit("kws", "t", nil, time.Time{}, func(Result) {}); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("closed registry: %v", err)
	}
	if _, err := reg.OpenStream("kws", "t"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("closed registry stream: %v", err)
	}
	if got := reg.Tenants(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("tenants: %v", got)
	}
}

// stalledEngine wraps fakeEngine but blocks job completion behind a gate,
// keeping the registry's tenant queues backlogged.
type stalledEngine struct {
	*fakeEngine
	gate <-chan struct{}
}

// SubmitFuncDeadline defers the callback until the gate opens.
func (e *stalledEngine) SubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	return e.fakeEngine.SubmitFuncDeadline(samples, deadline, func(r Result) { <-e.gate; fn(r) })
}

// TrySubmitFuncDeadline defers the callback until the gate opens.
func (e *stalledEngine) TrySubmitFuncDeadline(samples []int16, deadline time.Time, fn func(Result)) error {
	return e.fakeEngine.TrySubmitFuncDeadline(samples, deadline, func(r Result) { <-e.gate; fn(r) })
}

// TestRegistrySwapRejected covers the provenance gate: wrong signer,
// tampered payload, rollback version, mismatched model id, and swap on a
// model with no pinned vendor key all leave serving state untouched.
func TestRegistrySwapRejected(t *testing.T) {
	oldM, newM, utts, oldLabels, _ := registryFixture(t, 4)
	reg, signer := signedRegistry(t, oldM, RegistryConfig{Server: ServerConfig{Workers: 1}})
	defer reg.Close()

	good, err := signer.Package("kws", 2, newM)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong signer.
	mallory, err := NewSwapSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := mallory.Package("kws", 2, newM)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("kws", forged); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("forged signature accepted: %v", err)
	}

	// Tampered blob (signature over original).
	tampered := *good
	tampered.Blob = append([]byte(nil), good.Blob...)
	tampered.Blob[len(tampered.Blob)-1] ^= 1
	if err := reg.Swap("kws", &tampered); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("tampered blob accepted: %v", err)
	}

	// Rollback: version must strictly increase.
	stale, err := signer.Package("kws", 1, newM)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("kws", stale); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("rollback accepted: %v", err)
	}

	// Mismatched model id.
	misdirected, err := signer.Package("other", 2, newM)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("kws", misdirected); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("mismatched model id accepted: %v", err)
	}
	if err := reg.Swap("missing", good); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}

	// Rejections left the old generation serving.
	if v, _ := reg.ModelVersion("kws"); v != 1 {
		t.Fatalf("version moved to %d after rejected swaps", v)
	}
	res := registryAll(reg, "kws", "t", utts)
	for i, r := range res {
		if r.Err != nil || r.Label != oldLabels[i] {
			t.Fatalf("utterance %d after rejected swaps: label %d err %v, want old-model %d",
				i, r.Label, r.Err, oldLabels[i])
		}
	}

	// And the genuine package still lands.
	if err := reg.Swap("kws", good); err != nil {
		t.Fatalf("valid swap after rejections: %v", err)
	}

	// A registry without a pinned vendor key refuses swaps outright.
	unpinned, err := NewRegistry(map[string]ModelConfig{"kws": {Model: oldM}},
		RegistryConfig{Server: ServerConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer unpinned.Close()
	if err := unpinned.Swap("kws", good); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("swap without pinned key: %v", err)
	}
}

// TestRegistryMultiModelRouting: two models served side by side classify
// with their own weights, and swapping one leaves the other untouched.
func TestRegistryMultiModelRouting(t *testing.T) {
	aM, bM, utts, aLabels, bLabels := registryFixture(t, 6)
	signer, err := NewSwapSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(map[string]ModelConfig{
		"a": {Model: aM, VendorPub: signer.VendorPub(), Key: signer.Key()},
		"b": {Model: bM},
	}, RegistryConfig{Server: ServerConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if got := reg.Models(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("models: %v", got)
	}
	resA := registryAll(reg, "a", "t", utts)
	resB := registryAll(reg, "b", "t", utts)
	for i := range utts {
		if resA[i].Err != nil || resA[i].Label != aLabels[i] {
			t.Fatalf("model a utterance %d: %+v want %d", i, resA[i], aLabels[i])
		}
		if resB[i].Err != nil || resB[i].Label != bLabels[i] {
			t.Fatalf("model b utterance %d: %+v want %d", i, resB[i], bLabels[i])
		}
	}

	// Swap a -> b's weights; b unchanged.
	pkg, err := signer.Package("a", 5, bM)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("a", pkg); err != nil {
		t.Fatal(err)
	}
	resA = registryAll(reg, "a", "t", utts)
	resB = registryAll(reg, "b", "t", utts)
	for i := range utts {
		if resA[i].Label != bLabels[i] {
			t.Fatalf("model a post-swap utterance %d: %d want %d", i, resA[i].Label, bLabels[i])
		}
		if resB[i].Label != bLabels[i] {
			t.Fatalf("model b post-swap utterance %d: %d want %d", i, resB[i].Label, bLabels[i])
		}
	}
	if vA, _ := reg.ModelVersion("a"); vA != 5 {
		t.Fatalf("model a version %d, want 5", vA)
	}
	if vB, _ := reg.ModelVersion("b"); vB != 1 {
		t.Fatalf("model b version %d, want 1", vB)
	}
}

// TestRegistryStreamSwapped: a stream bound to a retired generation
// delivers its accepted hops, then reports ErrModelSwapped on the next
// submit, and Swapped() flips.
func TestRegistryStreamSwapped(t *testing.T) {
	oldM, newM, utts, _, _ := registryFixture(t, 2)
	reg, signer := signedRegistry(t, oldM, RegistryConfig{Server: ServerConfig{Workers: 1}})
	defer reg.Close()

	st, err := reg.OpenStream("kws", "t")
	if err != nil {
		t.Fatal(err)
	}
	var hops atomic.Uint64
	st.OnResult(func(hop uint64, r Result) {
		if r.Err == nil {
			hops.Add(1)
		}
	})
	if _, err := st.Submit(utts[0][:8000]); err != nil {
		t.Fatal(err)
	}
	if st.Swapped() {
		t.Fatal("stream reports swapped before any swap")
	}

	pkg, err := signer.Package("kws", 2, newM)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("kws", pkg); err != nil {
		t.Fatal(err)
	}
	if !st.Swapped() {
		t.Fatal("stream does not report swapped after swap")
	}
	// Accepted hops delivered (Swap drained the old engines).
	if st.Hops() > 0 && hops.Load() != st.Hops() {
		t.Fatalf("delivered %d of %d accepted hops", hops.Load(), st.Hops())
	}
	if _, err := st.Submit(utts[0][:8000]); !errors.Is(err, ErrModelSwapped) {
		t.Fatalf("submit on retired generation: %v, want ErrModelSwapped", err)
	}
}

// TestRegistrySubmitAllocFree pins Registry.Submit end to end over real
// NewServer shards — admission, the dispatcher, the pooled breaker
// callback, the worker's extract and Invoke, and the completion — at
// zero allocations per job with a preallocated callback.
func TestRegistrySubmitAllocFree(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 1)
	reg, err := NewRegistry(map[string]ModelConfig{"m": {Model: model}}, RegistryConfig{
		Shards: 2,
		Server: ServerConfig{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	done := make(chan Result, 1)
	fn := func(r Result) { done <- r }
	submit := func() {
		if err := reg.Submit("m", "t", utts[0], time.Time{}, fn); err != nil {
			t.Fatal(err)
		}
		if r := <-done; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for i := 0; i < 8; i++ { // warm the tenant queue, the ring and the pools
		submit()
	}
	if allocs := testing.AllocsPerRun(100, submit); allocs > 0 {
		t.Fatalf("Registry.Submit over real shards allocates %.2f objects/job, want 0", allocs)
	}
}
