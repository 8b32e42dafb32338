package netfront_test

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/tflm"
)

// directLabels classifies utts on a throwaway single-worker server over
// model — the bit-exact ground truth for one generation.
func directLabels(t testing.TB, model *tflm.Model, utts [][]int16) []int {
	t.Helper()
	srv, err := core.NewServer(model, core.ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	labels := make([]int, len(utts))
	for i, u := range utts {
		p, err := srv.Submit(u)
		if err != nil {
			t.Fatal(err)
		}
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		labels[i] = r.Label
		p.Release()
	}
	return labels
}

// startRegistryFrontEnd stands up a Registry-backed FrontEnd on loopback
// TCP and returns its address. Cleanup closes front end then registry.
func startRegistryFrontEnd(t testing.TB, reg *core.Registry, cfg netfront.Config) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fe := netfront.NewFrontEndRegistry(reg, cfg)
	go fe.Serve(l)
	t.Cleanup(func() {
		fe.Close()
		reg.Close()
	})
	return l.Addr().String()
}

// TestRegistryFrontEndRouting: hello-bound connections route to their model
// on a two-model registry front end, the ack carries the model version, and
// an unknown model fails the dial with CodeBadRequest.
func TestRegistryFrontEndRouting(t *testing.T) {
	modelA, utts, wantA := testFixture(t, 6)
	modelB, err := tflm.BuildRandomTinyConv(1, 77)
	if err != nil {
		t.Fatal(err)
	}
	wantB := directLabels(t, modelB, utts)

	reg, err := core.NewRegistry(map[string]core.ModelConfig{
		"a": {Model: modelA, Version: 10},
		"b": {Model: modelB, Version: 20},
	}, core.RegistryConfig{Server: core.ServerConfig{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	addr := startRegistryFrontEnd(t, reg, netfront.Config{})

	for _, tc := range []struct {
		model   string
		want    []int
		version uint64
	}{{"a", wantA, 10}, {"b", wantB, 20}} {
		c, err := client.DialOptions("tcp", addr, client.Options{Tenant: "acme", Model: tc.model})
		if err != nil {
			t.Fatalf("dial model %s: %v", tc.model, err)
		}
		if v := c.ModelVersion(); v != tc.version {
			t.Fatalf("model %s: hello ack version %d, want %d", tc.model, v, tc.version)
		}
		for i, u := range utts {
			label, err := c.Classify(u)
			if err != nil || label != tc.want[i] {
				t.Fatalf("model %s utterance %d: label=%d err=%v, want %d", tc.model, i, label, err, tc.want[i])
			}
		}
		// Pipelined one-shots route through the same binding.
		labels, err := classifyPipelined(c, utts)
		if err != nil {
			t.Fatalf("model %s pipelined: %v", tc.model, err)
		}
		for i := range labels {
			if labels[i] != tc.want[i] {
				t.Fatalf("model %s pipelined utterance %d: %d want %d", tc.model, i, labels[i], tc.want[i])
			}
		}
		c.Close()
	}

	// Unknown model: the dial itself fails with the structured code.
	if c, err := client.DialOptions("tcp", addr, client.Options{Model: "zzz"}); err == nil {
		c.Close()
		t.Fatal("dial with unknown model succeeded")
	} else {
		var re *client.RemoteError
		if !errors.As(err, &re) || re.Code != netfront.CodeBadRequest {
			t.Fatalf("unknown model: %v, want CodeBadRequest", err)
		}
	}

	// Two models means no default: a hello-less connection's requests fail
	// as bad requests rather than silently picking a model.
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Classify(utts[0]); err == nil {
		t.Fatal("hello-less classify on a two-model registry succeeded")
	}
}

// TestRegistryFrontEndSwapOverWire drives a hot swap under live wire load:
// one-shot clients (with retry) ride through the swap losing nothing, a
// stream bound to the old generation surfaces CodeModelSwapped with a
// retry-after hint, and a reopened stream works against the new generation.
func TestRegistryFrontEndSwapOverWire(t *testing.T) {
	modelA, utts, wantA := testFixture(t, 4)
	modelB, err := tflm.BuildRandomTinyConv(1, 77)
	if err != nil {
		t.Fatal(err)
	}
	wantB := directLabels(t, modelB, utts)

	signer, err := core.NewSwapSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := core.NewRegistry(map[string]core.ModelConfig{
		"kws": {Model: modelA, VendorPub: signer.VendorPub(), Key: signer.Key()},
	}, core.RegistryConfig{Shards: 2, Server: core.ServerConfig{Workers: 2, Queue: 4}})
	if err != nil {
		t.Fatal(err)
	}
	addr := startRegistryFrontEnd(t, reg, netfront.Config{})

	c, err := client.DialOptions("tcp", addr, client.Options{
		Tenant: "acme",
		Retry:  client.RetryPolicy{Attempts: 8, Base: time.Millisecond, Max: 8 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Open a stream on the old generation and park it mid-life.
	var swappedErr atomic.Pointer[client.RemoteError]
	st, err := c.OpenStream(func(hop uint64, label int, err error) {
		var re *client.RemoteError
		if errors.As(err, &re) && re.Code == netfront.CodeModelSwapped {
			swappedErr.Store(re)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Send(utts[0][:4000]); err != nil {
		t.Fatal(err)
	}
	// Stream opens carry no ack, so flush the connection with a synchronous
	// round trip: its response proves the server processed the open (conn
	// frames are FIFO) — the stream really is bound to the old generation
	// before the swap runs.
	if _, err := c.Classify(utts[0]); err != nil {
		t.Fatal(err)
	}

	// Swap under concurrent one-shot load.
	var loadWG sync.WaitGroup
	stop := make(chan struct{})
	var failed atomic.Uint64
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u := i % len(utts)
			label, err := c.Classify(utts[u])
			if err != nil {
				failed.Add(1)
				continue
			}
			if label != wantA[u] && label != wantB[u] {
				t.Errorf("classify matched neither generation: %d", label)
			}
		}
	}()

	pkg, err := signer.Package("kws", 2, modelB)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Swap("kws", pkg); err != nil {
		t.Fatalf("swap: %v", err)
	}
	close(stop)
	loadWG.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d one-shot requests failed through the swap despite retry", n)
	}

	// Poke the old-generation stream until the swap error surfaces (the
	// chunk may land before the cutover is visible connection-side).
	deadline := time.Now().Add(5 * time.Second)
	for swappedErr.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("stream never surfaced CodeModelSwapped after the swap")
		}
		st.Send(utts[0][:4000])
		time.Sleep(5 * time.Millisecond)
	}
	re := swappedErr.Load()
	if re.RetryAfter <= 0 {
		t.Fatalf("CodeModelSwapped arrived without a retry-after hint: %+v", re)
	}

	// A fresh stream works against the new generation and classifies with
	// the new weights.
	var labels []int
	var mu sync.Mutex
	st2, err := c.OpenStream(func(hop uint64, label int, err error) {
		if err == nil {
			mu.Lock()
			labels = append(labels, label)
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Send(utts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Close(); err != nil {
		t.Fatalf("close reopened stream: %v", err)
	}
	mu.Lock()
	n := len(labels)
	mu.Unlock()
	if n == 0 {
		t.Fatal("reopened stream delivered no hops on the new generation")
	}
}

// TestRegistryFrontEndTenantBusy: a tenant at its queue cap gets BUSY with
// the retry hint over the wire, scoped to that tenant — the other tenant
// keeps classifying.
func TestRegistryFrontEndTenantBusy(t *testing.T) {
	model, utts, want := testFixture(t, 2)
	reg, err := core.NewRegistry(map[string]core.ModelConfig{"kws": {Model: model}}, core.RegistryConfig{
		Server: core.ServerConfig{Workers: 1, Queue: 1},
		Tenants: map[string]core.TenantConfig{
			"greedy": {Weight: 1, MaxQueue: 1},
			"calm":   {Weight: 1, MaxQueue: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := startRegistryFrontEnd(t, reg, netfront.Config{})

	greedy, err := client.DialOptions("tcp", addr, client.Options{Tenant: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	defer greedy.Close()
	calm, err := client.DialOptions("tcp", addr, client.Options{Tenant: "calm"})
	if err != nil {
		t.Fatal(err)
	}
	defer calm.Close()

	// Hammer from the greedy tenant without retry until its 1-deep queue
	// reports BUSY; the calm tenant must stay unaffected throughout.
	var sawBusy atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := greedy.Classify(utts[0]); errors.Is(err, client.ErrBusy) {
				sawBusy.Store(true)
			}
		}()
	}
	wg.Wait()
	if !sawBusy.Load() {
		t.Fatal("greedy tenant with cap 1 never saw BUSY over 16 concurrent requests")
	}
	if label, err := calm.Classify(utts[1]); err != nil || label != want[1] {
		t.Fatalf("calm tenant during greedy flood: label=%d err=%v, want %d", label, err, want[1])
	}
	c := reg.TenantCounters("greedy")
	if c.Busy == 0 {
		t.Fatalf("greedy busy counter zero: %+v", c)
	}
}

// TestHealthOverWire pins the FrameHealth admin query end to end: a
// registry front end reports every model's real per-shard breaker state,
// and a single-server front end synthesizes one always-closed pseudo-shard
// so operators get a uniform answer from either backend.
func TestHealthOverWire(t *testing.T) {
	modelA, _, _ := testFixture(t, 1)
	reg, err := core.NewRegistry(map[string]core.ModelConfig{
		"a": {Model: modelA, Version: 10},
	}, core.RegistryConfig{Shards: 2, Server: core.ServerConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	addr := startRegistryFrontEnd(t, reg, netfront.Config{})
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	health, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(health) != 1 || health[0].Model != "a" || health[0].Version != 10 {
		t.Fatalf("health = %+v, want one model a@10", health)
	}
	if len(health[0].Shards) != 2 {
		t.Fatalf("%d shards reported, want 2", len(health[0].Shards))
	}
	for i, s := range health[0].Shards {
		if s.State != core.BreakerClosed || s.Workers != 2 || s.Live != 2 {
			t.Fatalf("shard %d: %+v, want closed with 2/2 workers", i, s)
		}
	}

	// Single-server front end: the same query answers with a pseudo-shard.
	modelB, _, _ := testFixture(t, 1)
	saddr := startFrontEnd(t, modelB, core.ServerConfig{Workers: 1}, "tcp")
	sc, err := client.Dial("tcp", saddr)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	shealth, err := sc.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(shealth) != 1 || len(shealth[0].Shards) != 1 {
		t.Fatalf("single-server health = %+v, want one pseudo-shard", shealth)
	}
	if s := shealth[0].Shards[0]; s.State != core.BreakerClosed || s.Workers != 1 || s.Live != 1 {
		t.Fatalf("pseudo-shard %+v, want closed 1/1", s)
	}
}
