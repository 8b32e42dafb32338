package main

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/loadgen"
)

// stubServer serves arrivals with a fixed service time on a fixed number of
// workers. Service runs on a virtual timeline: a job starts when both it is
// due and its worker is free, and finishes exactly `service` later, so timer
// lateness in the stub never lowers its rate. Its capacity is therefore
// exactly workers/service.
type stubServer struct {
	service time.Duration
	jobs    chan stubJob
	wg      sync.WaitGroup
}

type stubJob struct {
	i   int
	due time.Time
	st  *openStep
}

func newStubServer(workers int, service time.Duration) *stubServer {
	s := &stubServer{service: service, jobs: make(chan stubJob, 1<<16)}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			var free time.Time
			for j := range s.jobs {
				start := j.due
				if free.After(start) {
					start = free
				}
				free = start.Add(s.service)
				time.Sleep(time.Until(free))
				j.st.done(j.i, ok)
			}
		}()
	}
	return s
}

func (s *stubServer) close() {
	close(s.jobs)
	s.wg.Wait()
}

func TestCapacitySearchFindsStubCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about twelve seconds of open-loop load")
	}
	const workers, service = 2, 2 * time.Millisecond
	want := workers / service.Seconds() // 1000/s
	srv := newStubServer(workers, service)
	defer srv.close()
	rng := rand.New(rand.NewSource(1))
	p := &phase{name: "stub", loaded: true}
	lag := loadgen.NewHistogram()
	const arrivals = 1000
	capacity, steps := searchCapacity(1.1*want, capacitySteps, func(_ int, rate float64) stepResult {
		st := &openStep{rate: rate, gaps: unitGaps(rng, arrivals), results: ones(arrivals), phase: p, lag: lag}
		st.fire = func(i int, due time.Time) { srv.jobs <- stubJob{i, due, st} }
		return st.run()
	})
	for _, s := range steps {
		t.Logf("rate %.0f/s miss %.2f%% pass %v", s.rate, 100*s.miss(), s.pass())
	}
	t.Logf("capacity %.1f/s, want about %.0f/s", capacity, want)
	if capacity < 0.9*want || capacity > 1.1*want {
		t.Fatalf("capacity %.1f/s, want within [0.9, 1.1] x %.0f/s", capacity, want)
	}
	if got := lag.Count(); got != uint64(arrivals*capacitySteps) {
		t.Fatalf("generator lag recorded for %d arrivals, want %d", got, arrivals*capacitySteps)
	}
	if p50, p99 := lag.Quantile(0.5), lag.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Fatalf("generator lag p50 %v p99 %v", p50, p99)
	}
}

// TestStalledTargetKeepsOfferedLoad stalls every reply of a step behind a
// gate that opens only after the last arrival is due: the generator must
// still dispatch each arrival on time, and every reply counts as a miss.
func TestStalledTargetKeepsOfferedLoad(t *testing.T) {
	const rate, arrivals = 1000.0, 500
	gate := make(chan struct{})
	var mu sync.Mutex
	sent := make([]time.Time, arrivals)
	p := &phase{name: "stall", loaded: true}
	lag := loadgen.NewHistogram()
	st := &openStep{rate: rate, gaps: unitGaps(rand.New(rand.NewSource(2)), arrivals), results: ones(arrivals), phase: p, lag: lag}
	var fired sync.WaitGroup
	fired.Add(arrivals)
	st.fire = func(i int, due time.Time) {
		mu.Lock()
		sent[i] = time.Now()
		mu.Unlock()
		go func() {
			fired.Done()
			<-gate
			st.done(i, ok)
		}()
	}
	go func() {
		fired.Wait()
		time.Sleep(2 * latencyLimit)
		close(gate)
	}()
	res := st.run()
	span := sent[arrivals-1].Sub(sent[0]).Seconds()
	if offered := float64(arrivals-1) / span; offered < 0.8*rate {
		t.Fatalf("offered %.0f/s to a stalled target, want about %.0f/s", offered, rate)
	}
	if res.good != 0 || res.pass() {
		t.Fatalf("stalled step: %d ok within the limit, pass %v; want none", res.good, res.pass())
	}
	if p99 := lag.Quantile(0.99); p99 > 20*time.Millisecond {
		t.Fatalf("generator lag p99 %v while the target stalled", p99)
	}
}
