package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
)

// Outcome of one operation. Only ok counts as a success; the others are
// misses of the latency limit. busy and shed are the server's designed
// answers to overload and are expected while the capacity search probes
// above capacity; failed and wrong are never expected and fail the run.
type outcome int

const (
	ok outcome = iota
	busy
	shed
	failed
	wrong
)

// classify maps an operation's error and label onto its outcome; want
// lists the labels a correct reply may carry.
func classify(err error, got int, want ...int) outcome {
	if err != nil {
		var re *client.RemoteError
		switch {
		case errors.Is(err, client.ErrBusy), errors.Is(err, core.ErrQueueFull), errors.Is(err, core.ErrTenantBusy):
			return busy
		case errors.Is(err, core.ErrDeadlineExceeded), errors.Is(err, core.ErrOverloaded):
			return shed
		case errors.As(err, &re) && (re.Code == netfront.CodeDeadlineExceeded || re.Code == netfront.CodeUnavailable && re.RetryAfter > 0):
			return shed
		}
		return failed
	}
	for _, w := range want {
		if got == w {
			return ok
		}
	}
	return wrong
}

// phase counts the operations of one benchmark phase by outcome.
type phase struct {
	name                                string
	sent, okN, busyN, shedN, failN, wrN atomic.Int64
	// loaded marks a phase that probes above capacity on purpose, where
	// busy and shed replies are expected; in any other phase they count as
	// failed operations.
	loaded bool
}

type phaseCounts struct{ sent, ok, busy, shed, failed, wrong int64 }

// record counts one finished operation; its send is counted in sent.
func (p *phase) record(o outcome) {
	if !p.loaded && (o == busy || o == shed) {
		o = failed
	}
	switch o {
	case ok:
		p.okN.Add(1)
	case busy:
		p.busyN.Add(1)
	case shed:
		p.shedN.Add(1)
	case failed:
		p.failN.Add(1)
	case wrong:
		p.wrN.Add(1)
	}
}

func (p *phase) counts() phaseCounts {
	return phaseCounts{p.sent.Load(), p.okN.Load(), p.busyN.Load(), p.shedN.Load(), p.failN.Load(), p.wrN.Load()}
}

// samples collects durations from concurrent recorders into a buffer sized
// for the phase, so recording never allocates.
type samples struct {
	n atomic.Int64
	d []time.Duration
}

func newSamples(capacity int) *samples { return &samples{d: make([]time.Duration, capacity)} }

func (s *samples) add(d time.Duration) {
	if i := s.n.Add(1) - 1; int(i) < len(s.d) {
		s.d[i] = d
	}
}

// sorted returns the recorded durations in ascending order.
func (s *samples) sorted() []time.Duration {
	out := append([]time.Duration(nil), s.d[:min(int(s.n.Load()), len(s.d))]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the q-quantile of ascending durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLabel names the highest of p90, p99, p99.9 and p99.99 that has at
// least ten samples beyond it, with its value.
func tailLabel(sorted []time.Duration) string {
	best := "p50"
	q := 0.5
	for _, c := range []struct {
		name string
		q    float64
	}{{"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			best, q = c.name, c.q
		}
	}
	return fmt.Sprintf("%s %.3f ms", best, msOf(quantile(sorted, q)))
}

// unitGaps draws n exponential inter-arrival gaps of mean 1; a step at rate
// r scales them by 1/r, so the arrival pattern depends on the seed alone.
func unitGaps(rng *rand.Rand, n int) []float64 {
	g := make([]float64, n)
	for i := range g {
		g[i] = rng.ExpFloat64()
	}
	return g
}

// stepResult summarises one open-loop step at a fixed arrival rate.
type stepResult struct {
	rate       float64 // arrivals per second
	sent, good int     // results expected / ok within the limit
	lat        []time.Duration
	drain      time.Duration // last completion minus last due time
	outcomes   [wrong + 1]int
	// parts is the miss share of each of the step's stepParts consecutive
	// segments of arrivals.
	parts []float64
}

// stepParts is how many consecutive segments of arrivals a step is judged
// in, and settleParts how many of the first ones are left out because the
// queue is still filling up from empty. The host's speed wanders on a scale
// of a second; taking the median of the remaining segments keeps one slow
// moment from deciding the step, while a backlog that keeps growing pushes
// the later segments past the limit and fails it.
const (
	stepParts   = 5
	settleParts = 2
)

// miss is the median miss share of the step's segments after the settling
// ones.
func (s stepResult) miss() float64 { return medianOf(s.parts[settleParts:]) }

// pass reports whether the step met the service objective: 99% of results
// ok within the limit in the median settled segment.
func (s stepResult) pass() bool { return s.miss() <= missBudget }

// missBudget is the share of results that may miss the limit at capacity.
const missBudget = 0.01

// openStep is one open-loop step. fire(i, due) starts arrival i without
// blocking the generator; the target reports each result with
// done(i, outcome) when it completes. results[i] is how many results
// arrival i produces (1 for a one-shot; the hops a stream chunk completes).
type openStep struct {
	rate    float64
	gaps    []float64
	results []int
	fire    func(i int, due time.Time)
	phase   *phase
	lag     *loadgen.Histogram // how late each arrival was dispatched

	due     []time.Time
	wg      sync.WaitGroup
	mu      sync.Mutex
	res     stepResult
	segGood []int
	lastEnd time.Time // latest completion
}

// segment returns the segment of arrival i.
func (s *openStep) segment(i int) int { return i * stepParts / len(s.gaps) }

// done records one result of arrival i.
func (s *openStep) done(i int, o outcome) {
	now := time.Now()
	d := now.Sub(s.due[i])
	s.phase.record(o)
	s.mu.Lock()
	s.res.outcomes[o]++
	if o == ok {
		s.res.lat = append(s.res.lat, d)
		if d <= latencyLimit {
			s.res.good++
			s.segGood[s.segment(i)]++
		}
	}
	if now.After(s.lastEnd) {
		s.lastEnd = now
	}
	s.mu.Unlock()
	s.wg.Done()
}

// run dispatches every arrival at its due time and waits for all results.
// The generator never waits on a reply, so a stalled target faces the
// same offered load; latency counts from the due time, so the wait a stall
// imposes on later arrivals is charged to them.
func (s *openStep) run() stepResult {
	n := len(s.gaps)
	s.due = make([]time.Time, n)
	total := 0
	for _, k := range s.results {
		total += k
	}
	s.res = stepResult{rate: s.rate, sent: total, lat: make([]time.Duration, 0, total)}
	s.segGood = make([]int, stepParts)
	s.phase.sent.Add(int64(total))
	s.wg.Add(total)
	t := time.Now().Add(2 * time.Millisecond)
	for i := range s.due {
		t = t.Add(time.Duration(s.gaps[i] / s.rate * 1e9))
		s.due[i] = t
	}
	for i, due := range s.due {
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		s.lag.Record(time.Since(due))
		s.fire(i, due)
	}
	s.wg.Wait()
	s.res.drain = s.lastEnd.Sub(s.due[n-1])
	segSent := make([]int, stepParts)
	for i, k := range s.results {
		segSent[s.segment(i)] += k
	}
	for k, sent := range segSent {
		s.res.parts = append(s.res.parts, 1-float64(s.segGood[k])/float64(max(1, sent)))
	}
	sort.Slice(s.res.lat, func(i, j int) bool { return s.res.lat[i] < s.res.lat[j] })
	return s.res
}

// searchCapacity runs `steps` open-loop steps as a staircase around the
// capacity: starting at 0.75 × the closed-loop saturation estimate x0, it
// raises the rate by a factor after a step that passes and lowers it after
// one that fails, shrinking the factor at every reversal down to
// minFactor. From the first reversal on the steps straddle the capacity,
// and the capacity is the mean of their rates: it moves continuously with
// the system instead of by one probe step, and a step that a moment of host
// noise decided is outweighed by the others. probe(k, rate) runs step k.
// Every step runs the same number of arrivals, so the operation count does
// not depend on the rates chosen.
func searchCapacity(x0 float64, steps int, probe func(k int, rate float64) stepResult) (float64, []stepResult) {
	rate, f := 0.75*x0, 1.2
	var all []stepResult
	first := -1 // first step after a reversal
	for k := 0; k < steps; k++ {
		res := probe(k, rate)
		all = append(all, res)
		if k > 0 && res.pass() != all[k-1].pass() {
			f = math.Max(math.Sqrt(f), minFactor)
			if first < 0 {
				first = k
			}
		}
		if res.pass() {
			rate *= f
		} else {
			rate /= f
		}
	}
	if first < 0 {
		// No reversal: every step passed or every step failed. Report the
		// last rate tried, the nearest bound the search reached.
		return all[steps-1].rate, all
	}
	sum := 0.0
	for _, s := range all[first:] {
		sum += s.rate
	}
	return sum / float64(steps-first), all
}

// minFactor is the smallest rate change between staircase steps.
const minFactor = 1.03

// reportSteps adds the per-rate table of a capacity search to the report.
func (r *run) reportSteps(name string, unit float64, capacity float64, steps []stepResult) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s capacity search (limit %v, %.0f%% miss budget):\n", name, latencyLimit, 100*missBudget)
	for _, s := range steps {
		fmt.Fprintf(&b, "  rate %8.1f/s  results %6d  ok-in-limit %6d  median segment miss %6.2f%%  p50 %.3f ms  %s  drain %.1f ms  busy %d shed %d failed %d wrong %d\n",
			s.rate*unit, s.sent, s.good, 100*s.miss(), msOf(quantile(s.lat, 0.5)), tailLabel(s.lat), msOf(s.drain),
			s.outcomes[busy], s.outcomes[shed], s.outcomes[failed], s.outcomes[wrong])
	}
	fmt.Fprintf(&b, "  capacity %.1f/s", capacity*unit)
	r.note("%s", b.String())
}

// latencyLimit is the per-result latency limit of the capacity search. It
// sits an order of magnitude above the generator's own p99 lag on an idle
// 2-vCPU host (1-5 ms) and above a one-shot's service time, so capacity
// measures the server and not the timer.
const latencyLimit = 50 * time.Millisecond

// blocks runs a closed loop of n operations in capacitySteps blocks, one
// before each capacity step, so that its samples span the whole run rather
// than one stretch of it: the host's speed wanders during a run.
type blocks struct {
	n    int
	op   func(i int)
	took []time.Duration // wall time of each block
	err  error           // first error an operation reported
}

// run runs block k.
func (b *blocks) run(k int) {
	t := time.Now()
	for i := k * b.n / capacitySteps; i < (k+1)*b.n/capacitySteps; i++ {
		b.op(i)
	}
	b.took = append(b.took, time.Since(t))
}

// runBlocks runs block k of each loop that is not nil.
func runBlocks(k int, loops ...*blocks) {
	for _, b := range loops {
		if b != nil {
			b.run(k)
		}
	}
}

// capacitySteps is the number of open-loop rates the capacity search tries.
const capacitySteps = 12

// spreadOf describes xs (scaled by scale, in unit) by count, min, median
// and max.
func spreadOf(xs []float64, scale float64, unit string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%d samples, min %.3f median %.3f max %.3f %s", len(s), s[0]*scale, medianOf(s)*scale, s[len(s)-1]*scale, unit)
}

// medianOf returns the median of xs (mean of the middle pair when even).
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
