package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/tflm"
)

// streamCase is one generated stream-delivery scenario: a server shape, the
// signal cut into chunks, the hops whose OnResult callback panics, the
// chunks before which a worker panic is injected (Server.InjectPanic), and
// the chunk before which Close is called (concurrently with that chunk's
// Submit when racing; no Close before the end when closeAt is past the
// last chunk).
type streamCase struct {
	workers, queue int
	samples, hops  int // signal length and the full windows in it
	chunks         []int
	panicAt        map[uint64]bool
	injectAt       map[int]bool
	closeAt        int
	racing         bool
}

func (c streamCase) String() string {
	return fmt.Sprintf("workers=%d queue=%d samples=%d chunks=%d panics=%d injected=%d closeAt=%d racing=%v",
		c.workers, c.queue, c.samples, len(c.chunks), len(c.panicAt), len(c.injectAt), c.closeAt, c.racing)
}

// genStreamCase draws a scenario over a signal of up to maxSamples samples
// whose hops are stride samples apart.
func genStreamCase(r *rand.Rand, maxSamples, utt, stride int) streamCase {
	c := streamCase{
		workers:  1 + r.Intn(2),
		queue:    []int{0, 1, 4}[r.Intn(3)],
		panicAt:  map[uint64]bool{},
		injectAt: map[int]bool{},
	}
	c.samples = min(maxSamples, utt+r.Intn(90)*stride+r.Intn(stride))
	c.hops = 1 + (c.samples-utt)/stride
	for left := c.samples; left > 0; {
		var n int
		switch k := r.Intn(8); {
		case k < 3: // sub-hop chunks
			n = 1 + r.Intn(stride)
		case k < 6: // a few hops at once
			n = stride + r.Intn(4*stride)
		case k < 7: // about a second
			n = utt/2 + r.Intn(utt)
		default: // everything left
			n = left
		}
		n = min(n, left)
		c.chunks = append(c.chunks, n)
		left -= n
	}
	rate := []int{0, 8, 3}[r.Intn(3)]
	for hop := uint64(0); hop < uint64(c.hops); hop++ {
		if rate > 0 && r.Intn(rate) == 0 {
			c.panicAt[hop] = true
		}
	}
	rate = []int{0, 6, 2}[r.Intn(3)]
	for i := range c.chunks {
		if rate > 0 && r.Intn(rate) == 0 {
			c.injectAt[i] = true
		}
	}
	// Half the scenarios close after the last chunk, the rest before a
	// random chunk.
	c.closeAt = len(c.chunks)
	if r.Intn(2) == 0 {
		c.closeAt = r.Intn(len(c.chunks))
	}
	c.racing = r.Intn(2) == 0
	return c
}

// TestStreamDeliveryProperty drives one OnResult stream per seeded scenario
// (genStreamCase: chunk sizes, 1–2 workers, callbacks panicking at random
// hops, worker panics injected before random chunks, Close at a random
// point, possibly racing a Submit) and checks after Close that
//   - every accepted hop's callback ran exactly once, and no other hop's;
//   - the hops that neither panicked in their callback nor completed with
//     ErrWorkerPanic were delivered in strictly increasing order;
//   - the hops completed with ErrWorkerPanic plus the injected panics no
//     job consumed equal the worker panics injected;
//   - Panics() equals the callback panics among accepted hops plus the
//     hops completed with ErrWorkerPanic;
//   - nothing is left parked in the sequencer;
//   - every delivered label equals a standalone Invoke over the same
//     window of the signal.
func TestStreamDeliveryProperty(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 3)
	var signal []int16
	for _, u := range utts {
		signal = append(signal, u...)
	}
	cfg := dsp.DefaultFrontend()
	utt, stride := cfg.UtteranceSamples(), cfg.StrideSamples
	want := windowLabels(t, model, signal, utt, stride)
	seeds := 48
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		c := genStreamCase(rand.New(rand.NewSource(seed)), len(signal), utt, stride)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runStreamCase(t, model, signal, want, c)
		})
	}
}

// windowLabels classifies every full window of signal, hop i's window
// starting at sample i·stride, on a standalone interpreter.
func windowLabels(t *testing.T, model *tflm.Model, signal []int16, utt, stride int) []int {
	t.Helper()
	var windows [][]int16
	for start := 0; start+utt <= len(signal); start += stride {
		windows = append(windows, signal[start:start+utt])
	}
	return serialResults(t, model, windows)
}

func runStreamCase(t *testing.T, model *tflm.Model, signal []int16, want []int, c streamCase) {
	t.Helper()
	srv, err := NewServer(model, ServerConfig{Workers: c.workers, Queue: c.queue})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := srv.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	// The callback runs serialized by the sequencer, and Close
	// waits for the workers, so these are safe to read after Close.
	calls := map[uint64]int{}
	workerPanicked := map[uint64]bool{}
	var delivered []uint64
	labels := map[uint64]int{}
	stream.OnResult(func(hop uint64, r Result) {
		calls[hop]++
		if errors.Is(r.Err, ErrWorkerPanic) {
			workerPanicked[hop] = true
		} else if r.Err != nil {
			t.Errorf("%v: hop %d: %v", c, hop, r.Err)
		}
		if c.panicAt[hop] {
			panic("injected OnResult panic")
		}
		if r.Err == nil {
			delivered = append(delivered, hop)
			labels[hop] = r.Label
		}
	})
	closed := make(chan struct{})
	closeNow := func() {
		if c.racing {
			go func() { srv.Close(); close(closed) }()
			return
		}
		srv.Close()
		close(closed)
	}
	off := 0
	for i, n := range c.chunks {
		if i == c.closeAt {
			closeNow()
		}
		if c.injectAt[i] {
			srv.InjectPanic()
		}
		before := stream.Hops()
		_, err := stream.Submit(signal[off : off+n])
		off += n
		if err != nil && !errors.Is(err, ErrServerClosed) {
			t.Fatalf("%v: chunk %d: %v", c, i, err)
		}
		if err != nil && i < c.closeAt {
			t.Fatalf("%v: chunk %d before Close: %v", c, i, err)
		}
		if !c.racing && i > c.closeAt && stream.Hops() != before {
			t.Fatalf("%v: chunk %d after Close accepted %d hops", c, i, stream.Hops()-before)
		}
	}
	if c.closeAt >= len(c.chunks) {
		closeNow()
	}
	<-closed

	accepted := stream.Hops()
	if accepted > uint64(len(want)) {
		t.Fatalf("%v: %d hops accepted from a signal of %d windows", c, accepted, len(want))
	}
	if c.closeAt >= len(c.chunks) && accepted != uint64(c.hops) {
		t.Fatalf("%v: %d hops accepted with Close after the last chunk, want %d", c, accepted, c.hops)
	}
	callbackPanics, undelivered := 0, 0
	for hop := uint64(0); hop < accepted; hop++ {
		if calls[hop] != 1 {
			t.Fatalf("%v: hop %d: callback ran %d times, want 1", c, hop, calls[hop])
		}
		if c.panicAt[hop] {
			callbackPanics++
		}
		if c.panicAt[hop] || workerPanicked[hop] {
			undelivered++
		}
	}
	if len(calls) != int(accepted) {
		t.Fatalf("%v: callbacks ran for %d distinct hops, %d accepted", c, len(calls), accepted)
	}
	if len(delivered) != int(accepted)-undelivered {
		t.Fatalf("%v: %d hops delivered, want %d", c, len(delivered), int(accepted)-undelivered)
	}
	if left := srv.panicQueue.Load(); len(workerPanicked)+int(left) != len(c.injectAt) {
		t.Fatalf("%v: %d hops failed with ErrWorkerPanic and %d injected panics left over, %d injected",
			c, len(workerPanicked), left, len(c.injectAt))
	}
	for i, hop := range delivered {
		if i > 0 && hop <= delivered[i-1] {
			t.Fatalf("%v: delivery %d carried hop %d after hop %d", c, i, hop, delivered[i-1])
		}
		if labels[hop] != want[hop] {
			t.Fatalf("%v: hop %d: streamed label %d, standalone Invoke %d", c, hop, labels[hop], want[hop])
		}
	}
	if got, want := srv.Panics(), uint64(callbackPanics+len(workerPanicked)); got != want {
		t.Fatalf("%v: Panics() = %d, want %d", c, got, want)
	}
	stream.sq.mu.Lock()
	parked := len(stream.sq.pending)
	stream.sq.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%v: %d results left parked in the sequencer", c, parked)
	}
}
