package loadgen

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/netfront/client"
)

// ClientTargetConfig parameterizes a ClientTarget: where to connect, as
// whom, and what each traffic class sends.
type ClientTargetConfig struct {
	// Network and Addr name the server as in net.Dial ("tcp",
	// "127.0.0.1:7071" or "unix", "/tmp/omg.sock").
	Network string
	// Addr is the dial address for Network.
	Addr string
	// Tenants lists the tenant identities to pre-dial connections for —
	// usually the names from Config.Tenants. Empty means one anonymous
	// connection pool (no hello handshake unless Model is set).
	Tenants []string
	// Model is the model id every connection binds to via the hello
	// handshake; empty uses the server's default model.
	Model string
	// Conns is the number of connections per tenant; requests round-robin
	// across them by arrival sequence. <= 0 means 1.
	Conns int
	// Utterance is the audio every one-shot and batch request submits,
	// and the source streams are chunked from. Required.
	Utterance []int16
	// BatchSize is how many concurrent one-shots a ClassBatch request
	// pipelines on its connection; <= 0 means 4.
	BatchSize int
	// StreamChunks is how many sends a ClassStream request splits the
	// utterance into; <= 0 means 4.
	StreamChunks int
	// Timeout bounds each one-shot request, a batch's one-shots included,
	// end to end (queueing, inference, retries, redial); 0 means
	// unbounded.
	Timeout time.Duration
	// Retry is the one-shot retry policy applied on every connection.
	Retry client.RetryPolicy
	// Hedge opts one-shot requests into hedged duplicates on every
	// connection; zero value disables hedging.
	Hedge client.HedgePolicy
	// Seed feeds each connection's deterministic jitter source (offset
	// per connection so backoffs desynchronize); 0 means 1.
	Seed int64
	// DialFunc replaces the transport dial on every connection — the
	// test and fault-injection hook. nil means the stock dialer.
	DialFunc func(network, addr string) (net.Conn, error)
}

// ClientTarget is the Target that drives a live netfront server through
// netfront/client: per-tenant connection pools, one-shot/stream/batch
// request shapes (a batch being one-shots pipelined on one connection),
// optional retry and hedging. It implements StatsSource by summing the
// counters of every connection.
type ClientTarget struct {
	cfg     ClientTargetConfig
	pools   map[string][]*client.Client
	chunks  [][]int16
	closeMu sync.Mutex
	closed  bool
}

// NewClientTarget dials Conns connections per tenant and returns the ready
// target. Any dial failure closes what was already dialed and fails.
func NewClientTarget(cfg ClientTargetConfig) (*ClientTarget, error) {
	if len(cfg.Utterance) == 0 {
		return nil, fmt.Errorf("loadgen: ClientTargetConfig.Utterance is required")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 4
	}
	if cfg.StreamChunks <= 0 {
		cfg.StreamChunks = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []string{""}
	}
	t := &ClientTarget{cfg: cfg, pools: make(map[string][]*client.Client, len(tenants))}
	t.chunks = splitChunks(cfg.Utterance, cfg.StreamChunks)
	seed := cfg.Seed
	for _, tenant := range tenants {
		pool := make([]*client.Client, cfg.Conns)
		for i := range pool {
			c, err := client.DialOptions(cfg.Network, cfg.Addr, client.Options{
				Retry:    cfg.Retry,
				Hedge:    cfg.Hedge,
				Redial:   true,
				Seed:     seed,
				Tenant:   tenant,
				Model:    cfg.Model,
				DialFunc: cfg.DialFunc,
			})
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("loadgen: dial tenant %q conn %d: %w", tenant, i, err)
			}
			pool[i] = c
			seed++
		}
		t.pools[tenant] = pool
	}
	return t, nil
}

// Close tears down every connection. Idempotent; in-flight requests fail
// with ErrClosed.
func (t *ClientTarget) Close() error {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, pool := range t.pools {
		for _, c := range pool {
			if c != nil {
				c.Close()
			}
		}
	}
	return nil
}

// Stats sums the resilience counters across every connection in every
// tenant pool.
func (t *ClientTarget) Stats() client.Stats {
	var s client.Stats
	for _, pool := range t.pools {
		for _, c := range pool {
			cs := c.Stats()
			s.Retries += cs.Retries
			s.Redials += cs.Redials
			s.Hedges += cs.Hedges
			s.Busy += cs.Busy
		}
	}
	return s
}

// conn picks the tenant's seq'th connection round-robin.
func (t *ClientTarget) conn(tenant string, seq int) (*client.Client, error) {
	pool := t.pools[tenant]
	if len(pool) == 0 {
		return nil, fmt.Errorf("loadgen: no connections for tenant %q", tenant)
	}
	return pool[seq%len(pool)], nil
}

// Do executes one request of the class on the tenant's connection pool.
func (t *ClientTarget) Do(class Class, tenant string, seq int) error {
	c, err := t.conn(tenant, seq)
	if err != nil {
		return err
	}
	var deadline time.Time // bounds each one-shot, a batch's included
	if t.cfg.Timeout > 0 {
		deadline = time.Now().Add(t.cfg.Timeout)
	}
	switch class {
	case ClassOneShot:
		_, err := c.ClassifyDeadline(t.cfg.Utterance, deadline)
		return err
	case ClassBatch:
		// BatchSize one-shots in flight at once on the one connection: the
		// op fails if any does, and lasts as long as the slowest.
		errs := make(chan error, t.cfg.BatchSize)
		for range t.cfg.BatchSize {
			go func() {
				_, err := c.ClassifyDeadline(t.cfg.Utterance, deadline)
				errs <- err
			}()
		}
		var first error
		for range t.cfg.BatchSize {
			if err := <-errs; err != nil && first == nil {
				first = err
			}
		}
		return first
	case ClassStream:
		var mu sync.Mutex
		var cbErr error
		s, err := c.OpenStream(func(hop uint64, label int, err error) {
			if err != nil {
				mu.Lock()
				if cbErr == nil {
					cbErr = err
				}
				mu.Unlock()
			}
		})
		if err != nil {
			return err
		}
		for _, chunk := range t.chunks {
			if err := s.Send(chunk); err != nil {
				s.Close()
				return err
			}
		}
		if _, err := s.Close(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		return cbErr
	default:
		return fmt.Errorf("loadgen: unknown class %v", class)
	}
}

// splitChunks cuts samples into n nearly-equal contiguous chunks (the last
// carries the remainder); n never exceeds len(samples).
func splitChunks(samples []int16, n int) [][]int16 {
	if n > len(samples) {
		n = len(samples)
	}
	if n < 1 {
		n = 1
	}
	chunks := make([][]int16, 0, n)
	step := len(samples) / n
	for i := 0; i < n; i++ {
		lo := i * step
		hi := lo + step
		if i == n-1 {
			hi = len(samples)
		}
		chunks = append(chunks, samples[lo:hi])
	}
	return chunks
}
