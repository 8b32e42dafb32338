package netfront_test

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/netfront/faultconn"
	"repro/internal/tflm"
)

// TestServerSurvivesFaultMatrix is the chaos gate (ISSUE 6 acceptance, run
// under -race by `make chaos`): for every canonical fault profile —
// latency spikes, partial writes, mid-frame resets, stalls, bit
// corruption — a client speaking through a faulted connection must never
// take the server down. Per profile round it asserts that
//
//   - the server keeps serving a concurrent healthy connection with
//     bit-exact labels,
//   - every submission the server accepts completes exactly once (counted
//     through the direct SubmitFuncDeadline path),
//   - an injected worker panic mid-round is survived with the pool at full
//     strength after, and
//   - goroutine count returns to baseline once the round's clients are
//     gone — no leaked read loops, workers, or timers.
func TestServerSurvivesFaultMatrix(t *testing.T) {
	model, utts, want := testFixture(t, 4)
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 2, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A short read-idle timeout keeps corrupted length prefixes (the server
	// parks waiting for a body that never comes) from stalling the round.
	fe := netfront.NewFrontEnd(srv, netfront.Config{ReadIdleTimeout: 750 * time.Millisecond})
	go fe.Serve(l)
	defer fe.Close()
	addr := l.Addr().String()

	settle := func() int {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	baseline := settle()

	for _, p := range faultconn.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if p.SwapStorm {
				runSwapStormRound(t, p, model, utts, want, settle)
				return
			}
			if p.PanicStorm {
				runPanicStormRound(t, p, model, utts, want, settle)
				return
			}
			panicsBefore := srv.Panics()
			srv.InjectPanic() // consumed by whichever submission runs next

			faulted, err := client.DialOptions("tcp", addr, client.Options{
				Redial:    true,
				RedialMax: 8,
				Retry:     client.RetryPolicy{Attempts: 8, Base: time.Millisecond, Max: 8 * time.Millisecond},
				Seed:      p.Seed,
				DialFunc: func(network, a string) (net.Conn, error) {
					nc, err := net.DialTimeout(network, a, 2*time.Second)
					if err != nil {
						return nil, err
					}
					fc, _ := faultconn.New(nc, p)
					return fc, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			healthy, err := client.DialOptions("tcp", addr, client.Options{
				// The injected panic may land on this connection's request;
				// CodePanic is retryable, so a retry policy absorbs it.
				Retry: client.RetryPolicy{Attempts: 4, Base: time.Millisecond, Max: 8 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			var faultedOK atomic.Int32

			// Faulted traffic: failures are expected (that is the point),
			// but every failure must be a structured, known error — and the
			// server must shrug it all off.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					label, err := faulted.ClassifyDeadline(utts[i%len(utts)], time.Now().Add(3*time.Second))
					if err == nil && label >= 0 {
						faultedOK.Add(1)
					}
				}
			}()

			// Healthy traffic, concurrently: bit-exact labels throughout.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					label, err := healthy.Classify(utts[i%len(utts)])
					if err != nil {
						t.Errorf("healthy classify %d during %q faults: %v", i, p.Name, err)
						return
					}
					if label != want[i%len(utts)] {
						t.Errorf("healthy classify %d during %q faults: label %d, want %d",
							i, p.Name, label, want[i%len(utts)])
						return
					}
				}
			}()

			// Exactly-once: submissions accepted through the direct path
			// complete precisely one callback each, faults notwithstanding.
			const direct = 8
			var completions atomic.Int32
			done := make(chan struct{})
			for i := 0; i < direct; i++ {
				if err := srv.SubmitFuncDeadline(utts[i%len(utts)], time.Time{}, func(core.Result) {
					if completions.Add(1) == direct {
						close(done)
					}
				}); err != nil {
					t.Fatalf("direct submit %d: %v", i, err)
				}
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("direct submissions incomplete: %d of %d", completions.Load(), direct)
			}

			wg.Wait()
			time.Sleep(30 * time.Millisecond) // room for a duplicate to surface
			if n := completions.Load(); n != direct {
				t.Fatalf("accepted submissions completed %d times, want exactly %d", n, direct)
			}

			// The injected panic was consumed somewhere above; the pool must
			// be at full strength regardless.
			if srv.Panics() != panicsBefore+1 {
				// Not fatal: heavy fault rounds can starve the injection
				// until the next round's traffic. But the pool must be full
				// either way.
				t.Logf("injected panic not yet consumed in round %q", p.Name)
			}
			if live, workers := srv.LiveWorkers(), srv.Workers(); live != workers {
				t.Fatalf("worker pool shrank under %q faults: %d live of %d", p.Name, live, workers)
			}

			faulted.Close()
			healthy.Close()

			// Goroutines return to baseline once the round's conns unwind.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if n := settle(); n <= baseline+2 || time.Now().After(deadline) {
					if n > baseline+2 {
						t.Fatalf("goroutine leak under %q faults: %d, baseline %d", p.Name, n, baseline)
					}
					break
				}
			}
		})
	}

	// The matrix done, the server is still a working server (the swap-storm
	// round ran against its own registry and listener, leaving this server
	// untouched — which is itself part of the check).
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, u := range utts {
		label, err := c.Classify(u)
		if err != nil && errors.Is(err, client.ErrBusy) {
			label, err = c.Classify(u)
		}
		if err != nil || label != want[i] {
			t.Fatalf("post-matrix classify %d: label=%d err=%v, want %d", i, label, err, want[i])
		}
	}
}

// runSwapStormRound is the swap + fault overlap round of the chaos gate: a
// registry-backed front end serves faulted and healthy wire traffic while a
// background loop hot-swaps the model continuously. The swap loop re-signs
// the SAME weights at increasing versions, so every generation classifies
// bit-exactly — any label drift means a request straddled a swap wrongly.
// Asserted per round:
//
//   - healthy wire traffic stays bit-exact through back-to-back swaps (the
//     client retry policy absorbs CodeModelSwapped via its retry-after hint),
//   - every submission the registry admits completes exactly once, swaps
//     and transport faults notwithstanding,
//   - at least one swap actually landed during the traffic and the shard
//     set finishes at full worker strength (with a panic injected mid-round),
//   - closing clients, front end, and registry returns the goroutine count
//     to the round's own baseline.
func runSwapStormRound(t *testing.T, p faultconn.Profile, model *tflm.Model, utts [][]int16, want []int, settle func() int) {
	baseline := settle()

	signer, err := core.NewSwapSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := core.NewRegistry(map[string]core.ModelConfig{
		"kws": {Model: model, Version: 1, VendorPub: signer.VendorPub(), Key: signer.Key()},
	}, core.RegistryConfig{
		Shards:        2,
		Server:        core.ServerConfig{Workers: 2, Queue: 8},
		DefaultTenant: core.TenantConfig{MaxQueue: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEndRegistry(reg, netfront.Config{ReadIdleTimeout: 750 * time.Millisecond})
	go fe.Serve(l)
	addr := l.Addr().String()

	reg.InjectPanicShard("kws", 0) // consumed by whichever submission shard 0 runs next

	// The storm: swap as fast as the registry drains, each generation the
	// same weights under a fresh version and signature.
	stopSwaps := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for v := uint64(2); ; v++ {
			select {
			case <-stopSwaps:
				return
			default:
			}
			pkg, err := signer.Package("kws", v, model)
			if err != nil {
				t.Errorf("swap-storm package v%d: %v", v, err)
				return
			}
			if err := reg.Swap("kws", pkg); err != nil {
				t.Errorf("swap-storm swap v%d: %v", v, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	faulted, err := client.DialOptions("tcp", addr, client.Options{
		Tenant:    "chaos",
		Redial:    true,
		RedialMax: 8,
		Retry:     client.RetryPolicy{Attempts: 8, Base: time.Millisecond, Max: 8 * time.Millisecond},
		Seed:      p.Seed,
		DialFunc: func(network, a string) (net.Conn, error) {
			nc, err := net.DialTimeout(network, a, 2*time.Second)
			if err != nil {
				return nil, err
			}
			fc, _ := faultconn.New(nc, p)
			return fc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := client.DialOptions("tcp", addr, client.Options{
		Tenant: "steady",
		Retry:  client.RetryPolicy{Attempts: 8, Base: time.Millisecond, Max: 8 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var faultedOK atomic.Int32

	// Faulted traffic through the storm: failures are fine, but anything
	// that succeeds must carry a valid label.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			label, err := faulted.ClassifyDeadline(utts[i%len(utts)], time.Now().Add(3*time.Second))
			if err == nil && label >= 0 {
				faultedOK.Add(1)
			}
		}
	}()

	// Healthy traffic rides through every swap bit-exactly: the swap error
	// is retryable (it carries a retry-after hint), so no failure may leak.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			label, err := healthy.Classify(utts[i%len(utts)])
			if err != nil {
				t.Errorf("healthy classify %d during swap storm: %v", i, err)
				return
			}
			if label != want[i%len(utts)] {
				t.Errorf("healthy classify %d during swap storm: label %d, want %d",
					i, label, want[i%len(utts)])
				return
			}
		}
	}()

	// Exactly-once through the registry's direct path: jobs admitted here
	// straddle swap cutover flushes and must complete precisely once each.
	const direct = 8
	var completions atomic.Int32
	done := make(chan struct{})
	for i := 0; i < direct; i++ {
		if err := reg.Submit("kws", "", utts[i%len(utts)], time.Time{}, func(core.Result) {
			if completions.Add(1) == direct {
				close(done)
			}
		}); err != nil {
			t.Fatalf("direct submit %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("direct submissions incomplete through swap storm: %d of %d", completions.Load(), direct)
	}

	wg.Wait()
	time.Sleep(30 * time.Millisecond) // room for a duplicate to surface
	if n := completions.Load(); n != direct {
		t.Fatalf("accepted submissions completed %d times, want exactly %d", n, direct)
	}

	close(stopSwaps)
	swapWG.Wait()

	if v, _ := reg.ModelVersion("kws"); v < 2 {
		t.Fatal("swap storm landed zero swaps during the traffic")
	}
	var workers, live int
	for _, sh := range reg.Health()[0].Shards {
		workers += sh.Workers
		live += sh.Live
	}
	if live != workers {
		t.Fatalf("shard workers shrank under swap storm: %d live of %d", live, workers)
	}

	faulted.Close()
	healthy.Close()
	fe.Close()
	reg.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := settle(); n <= baseline+2 || time.Now().After(deadline) {
			if n > baseline+2 {
				t.Fatalf("goroutine leak after swap storm: %d, baseline %d", n, baseline)
			}
			break
		}
	}
}

// runPanicStormRound is the self-healing round of the chaos gate (ISSUE 9
// acceptance): a registry-backed front end serves faulted and healthy wire
// traffic while a background storm repeatedly kills shard 0's workers with
// injected panics, driving its circuit breaker open over and over. Asserted
// per round:
//
//   - healthy wire traffic stays bit-exact throughout — panicked attempts
//     surface retryable CodePanic and land on the surviving shard,
//   - every submission the registry admits completes exactly once (the
//     breaker sheds only at admission, never admitted work),
//   - the storm really tripped a breaker at least once (Registry.Health),
//   - after the storm stops, the supervisor rebuilds back to full shard
//     strength: every breaker closed, every worker live,
//   - tearing everything down returns the goroutine count to the round's
//     own baseline.
func runPanicStormRound(t *testing.T, p faultconn.Profile, model *tflm.Model, utts [][]int16, want []int, settle func() int) {
	baseline := settle()

	cfg := core.RegistryConfig{
		Shards:        2,
		Server:        core.ServerConfig{Workers: 2, Queue: 8},
		DefaultTenant: core.TenantConfig{MaxQueue: 256},
		Breaker: core.BreakerConfig{
			Threshold:    2,
			Cooldown:     2 * time.Millisecond,
			CooldownMax:  20 * time.Millisecond,
			RebuildAfter: 2,
		},
	}
	reg, err := core.NewRegistry(map[string]core.ModelConfig{
		"kws": {Model: model, Version: 1},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEndRegistry(reg, netfront.Config{ReadIdleTimeout: 750 * time.Millisecond})
	go fe.Serve(l)
	addr := l.Addr().String()

	// The storm arms shard 0 in bursts: each armed panic is taken by the
	// next job a shard-0 worker starts. While a burst lasts, only the at
	// most Workers jobs already running can finish healthy, so a burst of
	// (Workers+1)·(Threshold−1)+1 panics (Threshold+Workers here) holds a
	// run of Threshold consecutive hard failures however the scheduler
	// interleaves them: the breaker trips by count, not by timing. The
	// first burst is armed before any traffic; later ones keep tripping the
	// breaker and force supervisor rebuilds mid-traffic.
	burst := (cfg.Server.Workers+1)*(cfg.Breaker.Threshold-1) + 1
	storm := func() {
		for i := 0; i < burst; i++ {
			reg.InjectPanicShard("kws", 0)
		}
	}
	storm()
	stopStorm := make(chan struct{})
	var stormWG sync.WaitGroup
	stormWG.Add(1)
	go func() {
		defer stormWG.Done()
		for {
			select {
			case <-stopStorm:
				return
			case <-time.After(time.Millisecond):
				storm()
			}
		}
	}()

	faulted, err := client.DialOptions("tcp", addr, client.Options{
		Tenant:    "chaos",
		Redial:    true,
		RedialMax: 8,
		Retry:     client.RetryPolicy{Attempts: 8, Base: time.Millisecond, Max: 8 * time.Millisecond},
		Seed:      p.Seed,
		DialFunc: func(network, a string) (net.Conn, error) {
			nc, err := net.DialTimeout(network, a, 2*time.Second)
			if err != nil {
				return nil, err
			}
			fc, _ := faultconn.New(nc, p)
			return fc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The healthy connection also hedges: a request parked behind the dying
	// shard is answered by its duplicate on the survivor — the hedging
	// contract exercised under real faults.
	healthy, err := client.DialOptions("tcp", addr, client.Options{
		Tenant: "steady",
		Retry:  client.RetryPolicy{Attempts: 12, Base: time.Millisecond, Max: 8 * time.Millisecond},
		Hedge:  client.HedgePolicy{Delay: 25 * time.Millisecond, Max: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var faultedOK atomic.Int32

	// Faulted traffic through the storm: failures are fine, but anything
	// that succeeds must carry a valid label.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			label, err := faulted.ClassifyDeadline(utts[i%len(utts)], time.Now().Add(3*time.Second))
			if err == nil && label >= 0 {
				faultedOK.Add(1)
			}
		}
	}()

	// Healthy traffic rides through the panics bit-exactly: CodePanic is
	// retryable, the tripped shard leaves rotation, the survivor answers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			label, err := healthy.Classify(utts[i%len(utts)])
			if err != nil {
				t.Errorf("healthy classify %d during panic storm: %v", i, err)
				return
			}
			if label != want[i%len(utts)] {
				t.Errorf("healthy classify %d during panic storm: label %d, want %d",
					i, label, want[i%len(utts)])
				return
			}
		}
	}()

	// Exactly-once through the registry's direct path: jobs admitted here
	// may land on the panicking shard (their callback then reports the
	// panic error) but each must complete precisely once — the breaker is
	// never allowed to drop admitted work.
	const direct = 8
	var completions atomic.Int32
	done := make(chan struct{})
	for i := 0; i < direct; i++ {
		if err := reg.Submit("kws", "", utts[i%len(utts)], time.Time{}, func(core.Result) {
			if completions.Add(1) == direct {
				close(done)
			}
		}); err != nil {
			t.Fatalf("direct submit %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("direct submissions incomplete through panic storm: %d of %d", completions.Load(), direct)
	}

	wg.Wait()
	time.Sleep(30 * time.Millisecond) // room for a duplicate to surface
	if n := completions.Load(); n != direct {
		t.Fatalf("accepted submissions completed %d times, want exactly %d", n, direct)
	}

	close(stopStorm)
	stormWG.Wait()

	trips := uint64(0)
	for _, mh := range reg.Health() {
		for _, sh := range mh.Shards {
			trips += sh.Trips
		}
	}
	if trips == 0 {
		t.Fatal("panic storm never tripped a breaker")
	}

	// Self-healing: with the storm gone, the registry must return to full
	// shard strength — supervisor rebuilds plus half-open probes reclose
	// every breaker. Probes ride real submissions, so the poll keeps a
	// trickle of traffic flowing (exactly what production recovery looks
	// like: the breaker half-opens, the next request is the probe).
	recoverDeadline := time.Now().Add(10 * time.Second)
	for {
		probeDone := make(chan struct{})
		if err := reg.Submit("kws", "", utts[0], time.Time{}, func(core.Result) {
			close(probeDone)
		}); err == nil {
			<-probeDone
		}
		recovered := true
		for _, mh := range reg.Health() {
			for _, sh := range mh.Shards {
				if sh.State != core.BreakerClosed || sh.Live != sh.Workers {
					recovered = false
				}
			}
		}
		if recovered {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("registry never recovered to full shard strength: %+v", reg.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}

	faulted.Close()
	healthy.Close()
	fe.Close()
	reg.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := settle(); n <= baseline+2 || time.Now().After(deadline) {
			if n > baseline+2 {
				t.Fatalf("goroutine leak after panic storm: %d, baseline %d", n, baseline)
			}
			break
		}
	}
}
