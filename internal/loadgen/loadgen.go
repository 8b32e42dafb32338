package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netfront"
	"repro/internal/netfront/client"
)

// Class is a traffic class in a mixed profile: the three load shapes a
// client puts on the wire.
type Class int

// The traffic classes. ClassOneShot is a single utterance per request,
// ClassStream opens a stream and feeds it hop-sized chunks, ClassBatch
// pipelines several one-shots on one connection and waits for them all.
const (
	ClassOneShot Class = iota
	ClassStream
	ClassBatch
	numClasses
)

// String names the class as it appears in reports ("oneshot", "stream",
// "batch").
func (c Class) String() string {
	switch c {
	case ClassOneShot:
		return "oneshot"
	case ClassStream:
		return "stream"
	case ClassBatch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Mix is the relative weight of each traffic class in the arrival stream.
// Weights are relative, not percentages; the zero value means pure one-shot
// traffic.
type Mix struct {
	// OneShot weights single-utterance requests.
	OneShot float64
	// Stream weights open-stream/chunks/close request sequences.
	Stream float64
	// Batch weights batches of pipelined one-shots.
	Batch float64
}

// normalized returns the mix as cumulative probabilities over the class
// order, defaulting to pure one-shot when every weight is zero.
func (m Mix) normalized() [numClasses]float64 {
	w := [numClasses]float64{m.OneShot, m.Stream, m.Batch}
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total == 0 {
		return [numClasses]float64{1, 1, 1}
	}
	var cum [numClasses]float64
	var acc float64
	for i, x := range w {
		if x > 0 {
			acc += x / total
		}
		cum[i] = acc
	}
	cum[numClasses-1] = 1
	return cum
}

// TenantSpec is one tenant in a multi-tenant profile: arrivals are assigned
// to tenants with probability proportional to Weight.
type TenantSpec struct {
	// Name is the tenant identity sent on the wire (hello handshake).
	Name string
	// Weight is the tenant's relative share of the arrival stream; <= 0
	// means 1.
	Weight float64
}

// Config parameterizes one open-loop run. Rate and either Duration or
// MaxArrivals bound the schedule; everything else shapes the traffic.
type Config struct {
	// Rate is the mean arrival rate in requests per second (Poisson
	// process: exponential inter-arrival times). Must be > 0.
	Rate float64
	// Duration is the schedule horizon: arrivals whose scheduled time
	// falls past it are not issued. Zero with MaxArrivals set means
	// arrival-count-bounded only.
	Duration time.Duration
	// MaxArrivals caps the number of arrivals regardless of Duration;
	// zero means unlimited. At least one of Duration/MaxArrivals must
	// bound the run.
	MaxArrivals int
	// Seed drives the arrival schedule and the class/tenant assignment.
	// The whole schedule is a deterministic function of (Seed, Rate,
	// Duration, MaxArrivals, Mix, Tenants) — completions never feed back
	// into it. Zero means 1.
	Seed int64
	// Mix is the traffic-class mix; zero value = all one-shot.
	Mix Mix
	// Tenants is the multi-tenant profile; empty means one anonymous
	// tenant ("").
	Tenants []TenantSpec
	// DrainTimeout bounds how long Run waits for in-flight requests after
	// the schedule ends; what is still unfinished then is reported as
	// Inflight. Zero means 10s.
	DrainTimeout time.Duration
}

// withDefaults fills unset knobs and validates the schedule bounds.
func (c Config) withDefaults() (Config, error) {
	if c.Rate <= 0 {
		return c, errors.New("loadgen: Config.Rate must be > 0")
	}
	if c.Duration <= 0 && c.MaxArrivals <= 0 {
		return c, errors.New("loadgen: set Config.Duration and/or Config.MaxArrivals")
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c, nil
}

// Target executes one request of a traffic class on behalf of a tenant.
// Implementations must be safe for concurrent calls — the open-loop
// scheduler dispatches every arrival in its own goroutine and never waits.
// ClientTarget is the wire-protocol implementation; tests use stubs.
type Target interface {
	// Do runs one request to completion and returns its outcome. seq is
	// the arrival's schedule index (useful for round-robin decisions).
	Do(class Class, tenant string, seq int) error
}

// StatsSource is the optional Target extension that surfaces client-side
// resilience counters (retries, redials, hedges, BUSY replies) into the
// report.
type StatsSource interface {
	// Stats snapshots the accumulated client counters.
	Stats() client.Stats
}

// Report is the outcome of one Run: counts, per-class latency
// distributions, overload-hint observations and per-tenant completions.
type Report struct {
	// Offered is how many arrivals the schedule issued — a deterministic
	// function of the Config, independent of server behavior.
	Offered uint64
	// Completed counts requests that finished successfully.
	Completed uint64
	// Busy counts requests rejected with BUSY (admission backpressure).
	Busy uint64
	// Shed counts requests shed by the queue-deadline overload path
	// (wire CodeDeadlineExceeded).
	Shed uint64
	// Errors counts every other failure — protocol errors, transport
	// loss, client-side deadline misses.
	Errors uint64
	// Inflight is what the drain timeout gave up on: issued but neither
	// completed nor failed when Run returned.
	Inflight uint64
	// Elapsed is wall-clock time from first schedule tick to return.
	Elapsed time.Duration
	// Overall is the latency distribution across all classes, measured
	// from each arrival's *scheduled* time (coordinated-omission
	// corrected: scheduler lag counts against the server, not for it).
	Overall *Histogram
	// PerClass holds one latency histogram per traffic class.
	PerClass [numClasses]*Histogram
	// Hints is the distribution of server retry-after hints observed on
	// BUSY and shed replies.
	Hints *Histogram
	// TenantDone maps tenant name to its completed-request count.
	TenantDone map[string]uint64
	// ErrorSamples holds the first few distinct failure messages, for
	// diagnosis without logging every error.
	ErrorSamples []string
	// Client is the target's resilience-counter snapshot when the target
	// implements StatsSource; zero otherwise.
	Client client.Stats
}

// Latency returns the per-class histogram (nil Class bounds are the
// caller's problem only in the sense that out-of-range panics).
func (r *Report) Latency(c Class) *Histogram { return r.PerClass[c] }

// Fairness is the Jain fairness index over per-tenant completions:
// (Σx)²/(n·Σx²), 1.0 when every tenant completed the same amount, 1/n when
// one tenant got everything. Returns 1 with fewer than two tenants.
func (r *Report) Fairness() float64 {
	if len(r.TenantDone) < 2 {
		return 1
	}
	counts := make([]uint64, 0, len(r.TenantDone))
	for _, n := range r.TenantDone {
		counts = append(counts, n)
	}
	return JainIndex(counts)
}

// JainIndex computes Jain's fairness index over a set of allocation counts.
func JainIndex(counts []uint64) float64 {
	if len(counts) == 0 {
		return 1
	}
	var sum, sq float64
	for _, c := range counts {
		x := float64(c)
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(counts)) * sq)
}

// String is the one-line human summary of the run.
func (r *Report) String() string {
	return fmt.Sprintf("offered=%d completed=%d busy=%d shed=%d errors=%d inflight=%d elapsed=%v fairness=%.3f latency{%s}",
		r.Offered, r.Completed, r.Busy, r.Shed, r.Errors, r.Inflight,
		r.Elapsed.Round(time.Millisecond), r.Fairness(), r.Overall.String())
}

// collector is the concurrent half of a Report: completion goroutines
// record here, Run snapshots it into the Report at the end.
type collector struct {
	completed atomic.Uint64
	busy      atomic.Uint64
	shed      atomic.Uint64
	errs      atomic.Uint64

	overall  *Histogram
	perClass [numClasses]*Histogram
	hints    *Histogram

	mu      sync.Mutex
	tenants map[string]uint64
	samples []string
	seen    map[string]bool
}

func newCollector() *collector {
	c := &collector{
		overall: NewHistogram(),
		hints:   NewHistogram(),
		tenants: make(map[string]uint64),
		seen:    make(map[string]bool),
	}
	for i := range c.perClass {
		c.perClass[i] = NewHistogram()
	}
	return c
}

// record files one completed request: latency on success, classified
// counters plus any retry-after hint on failure.
func (c *collector) record(class Class, tenant string, lat time.Duration, err error) {
	if err == nil {
		c.completed.Add(1)
		c.overall.Record(lat)
		c.perClass[class].Record(lat)
		c.mu.Lock()
		c.tenants[tenant]++
		c.mu.Unlock()
		return
	}
	var hint time.Duration
	var be *client.BusyError
	var re *client.RemoteError
	switch {
	case errors.As(err, &be):
		c.busy.Add(1)
		hint = be.RetryAfter
	case errors.As(err, &re) && re.Code == netfront.CodeBusy:
		c.busy.Add(1)
		hint = re.RetryAfter
	case errors.As(err, &re) && re.Code == netfront.CodeDeadlineExceeded:
		c.shed.Add(1)
		hint = re.RetryAfter
	case errors.As(err, &re) && re.Code == netfront.CodeUnavailable && re.RetryAfter > 0:
		// The overload controller's over-share shed: transient by
		// contract (it carries a drain hint), so it is load shedding,
		// not a protocol failure.
		c.shed.Add(1)
		hint = re.RetryAfter
	default:
		c.errs.Add(1)
		c.mu.Lock()
		if msg := err.Error(); !c.seen[msg] && len(c.samples) < 8 {
			c.seen[msg] = true
			c.samples = append(c.samples, msg)
		}
		c.mu.Unlock()
	}
	if hint > 0 {
		c.hints.Record(hint)
	}
}

// Run executes one open-loop load generation pass: it draws the Poisson
// arrival schedule from the seeded source, dispatches every arrival at its
// scheduled time in its own goroutine, and never lets completions (or the
// lack of them) slow the schedule down — a stalled server faces the full
// offered load, which is the property that makes the measured tails honest.
// Run returns after the schedule ends and in-flight requests drain (bounded
// by DrainTimeout; stragglers are counted, not waited for).
func Run(cfg Config, t Target) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mix := cfg.Mix.normalized()
	tenants, tcum := tenantTable(cfg.Tenants)
	col := newCollector()

	var wg sync.WaitGroup
	var offered uint64
	start := time.Now()
	next := start
	for seq := 0; ; seq++ {
		if cfg.MaxArrivals > 0 && seq >= cfg.MaxArrivals {
			break
		}
		// Everything random about this arrival — its time, class and
		// tenant — is drawn here, on the schedule goroutine, before
		// dispatch: the schedule is sealed against completion feedback.
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if cfg.Duration > 0 && next.Sub(start) > cfg.Duration {
			break
		}
		class := Class(pick(rng, mix[:]))
		tenant := tenants[pick(rng, tcum)]
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		offered++
		wg.Add(1)
		go func(sched time.Time, class Class, tenant string, seq int) {
			defer wg.Done()
			err := t.Do(class, tenant, seq)
			col.record(class, tenant, time.Since(sched), err)
		}(next, class, tenant, seq)
	}

	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(cfg.DrainTimeout):
	}

	rep := &Report{
		Offered:      offered,
		Completed:    col.completed.Load(),
		Busy:         col.busy.Load(),
		Shed:         col.shed.Load(),
		Errors:       col.errs.Load(),
		Elapsed:      time.Since(start),
		Overall:      col.overall,
		PerClass:     col.perClass,
		Hints:        col.hints,
		TenantDone:   make(map[string]uint64, len(col.tenants)),
		ErrorSamples: col.samples,
	}
	rep.Inflight = offered - rep.Completed - rep.Busy - rep.Shed - rep.Errors
	col.mu.Lock()
	for k, v := range col.tenants {
		rep.TenantDone[k] = v
	}
	col.mu.Unlock()
	if ss, ok := t.(StatsSource); ok {
		rep.Client = ss.Stats()
	}
	return rep, nil
}

// tenantTable flattens the tenant specs into a name list plus cumulative
// weights for sampling; an empty spec list is the single anonymous tenant.
func tenantTable(specs []TenantSpec) ([]string, []float64) {
	if len(specs) == 0 {
		return []string{""}, []float64{1}
	}
	names := make([]string, len(specs))
	cum := make([]float64, len(specs))
	var total float64
	for i, s := range specs {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		names[i] = s.Name
		cum[i] = w
		total += w
	}
	var acc float64
	for i := range cum {
		acc += cum[i] / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	return names, cum
}

// pick draws an index from cumulative probabilities via one uniform sample.
// A zero-mass entry is never selected: a draw landing exactly on a shared
// boundary advances to the next entry with probability mass.
func pick(rng *rand.Rand, cum []float64) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(cum, u)
	for i < len(cum)-1 {
		lo := 0.0
		if i > 0 {
			lo = cum[i-1]
		}
		if cum[i] > lo {
			break
		}
		i++
	}
	return i
}
