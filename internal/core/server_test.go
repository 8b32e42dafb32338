package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/tflm"
)

// TestNewServerRejectsUnplannableModel: the worker stages one fingerprint
// into the model's only input and reads its only output, so a model
// outside that shape (here: two output tensors) fails NewServer instead of
// being served some other way.
func TestNewServerRejectsUnplannableModel(t *testing.T) {
	b := tflm.NewBuilder("two outputs", 1)
	q := tflm.QuantParams{Scale: 1.0 / 128}
	in := b.Tensor(&tflm.Tensor{Name: "fingerprint", Type: tflm.Int8, Shape: []int{1, 49, 43, 1}, Quant: &q})
	b.Input(in)
	for _, name := range []string{"flat_a", "flat_b"} {
		out := b.Tensor(&tflm.Tensor{Name: name, Type: tflm.Int8, Shape: []int{1, 49 * 43}, Quant: &q})
		b.Node(tflm.OpReshape, tflm.ReshapeParams{NewShape: []int{1, 49 * 43}}, []int{in}, []int{out})
		b.Output(out)
	}
	model, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tflm.NewInterpreter(model.Clone()); err != nil {
		t.Fatalf("fixture must be a valid model: %v", err)
	}
	srv, err := NewServer(model, ServerConfig{Workers: 1})
	if err == nil {
		srv.Close()
		t.Fatal("NewServer accepted a two-output model")
	}
}

// TestServerSubmitOrdering: tickets waited in submission order must yield
// exactly the serial classification of the batch, for every pool size.
func TestServerSubmitOrdering(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 24)
	want := serialResults(t, model, utts)
	for _, workers := range []int{1, 2, 4} {
		srv, err := NewServer(model, ServerConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		tickets := make([]*Pending, len(utts))
		for i, u := range utts {
			if tickets[i], err = srv.Submit(u); err != nil {
				t.Fatalf("workers=%d submit %d: %v", workers, i, err)
			}
		}
		for i, p := range tickets {
			r := p.Wait()
			if r.Err != nil {
				t.Fatalf("workers=%d utterance %d: %v", workers, i, r.Err)
			}
			if r.Label != want[i] {
				t.Fatalf("workers=%d utterance %d: label %d, want %d", workers, i, r.Label, want[i])
			}
			// Wait must be repeatable.
			if again := p.Wait(); again.Label != r.Label {
				t.Fatalf("workers=%d utterance %d: second Wait diverged", workers, i)
			}
		}
		srv.Close()
		if n := srv.LiveWorkers(); n != 0 {
			t.Fatalf("workers=%d: %d worker goroutines alive after Close", workers, n)
		}
	}
}

// TestServerConcurrentSubmitters: many goroutines sharing one server must
// each observe correct in-order results for their own submissions (run with
// -race to check the synchronization).
func TestServerConcurrentSubmitters(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 12)
	want := serialResults(t, model, utts)
	srv, err := NewServer(model, ServerConfig{Workers: 4, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				tickets := make([]*Pending, len(utts))
				for i, u := range utts {
					p, err := srv.Submit(u)
					if err != nil {
						errs <- err
						return
					}
					tickets[i] = p
				}
				for i, p := range tickets {
					if r := p.Wait(); r.Err != nil || r.Label != want[i] {
						errs <- errors.New("wrong result under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestServerBackpressure: with the workers not yet draining, the queue
// holds exactly Queue submissions and TrySubmitFuncDeadline then reports
// ErrQueueFull without firing its callback; once the workers start,
// everything queued resolves in order.
func TestServerBackpressure(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 6)
	want := serialResults(t, model, utts)
	srv, err := newServer(model, ServerConfig{Workers: 2, Queue: len(utts)})
	if err != nil {
		t.Fatal(err)
	}
	if cap(srv.jobs) != len(utts) {
		t.Fatalf("queue depth %d, want %d", cap(srv.jobs), len(utts))
	}
	tickets := make([]*Pending, len(utts))
	for i, u := range utts {
		if tickets[i], err = srv.Submit(u); err != nil {
			t.Fatalf("submit %d within queue capacity: %v", i, err)
		}
	}
	rejected := func(Result) { t.Error("callback of a rejected submission fired") }
	if err := srv.TrySubmitFuncDeadline(utts[0], time.Time{}, rejected); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond capacity: err = %v, want ErrQueueFull", err)
	}
	srv.start()
	for i, p := range tickets {
		if r := p.Wait(); r.Err != nil || r.Label != want[i] {
			t.Fatalf("utterance %d after backpressure: %+v, want label %d", i, r, want[i])
		}
	}
	srv.Close()
	if n := srv.LiveWorkers(); n != 0 {
		t.Fatalf("%d worker goroutines alive after Close", n)
	}
}

// TestServerCloseDrains: Close must resolve every ticket obtained before it,
// reject later submissions with ErrServerClosed, stop all workers, and stay
// idempotent.
func TestServerCloseDrains(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 10)
	want := serialResults(t, model, utts)
	srv, err := NewServer(model, ServerConfig{Workers: 2, Queue: len(utts)})
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]*Pending, len(utts))
	for i, u := range utts {
		if tickets[i], err = srv.Submit(u); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	for i, p := range tickets {
		if r := p.Wait(); r.Err != nil || r.Label != want[i] {
			t.Fatalf("in-flight utterance %d not drained by Close: %+v", i, r)
		}
	}
	if _, err := srv.Submit(utts[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrServerClosed", err)
	}
	if err := srv.TrySubmitFuncDeadline(utts[0], time.Time{}, func(Result) {}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("TrySubmitFuncDeadline after Close: err = %v, want ErrServerClosed", err)
	}
	if res := submitAll(srv, utts[:2]); res[0].Err == nil || res[1].Err == nil {
		t.Fatal("Submit after Close did not error per utterance")
	}
	srv.Close() // idempotent
	if n := srv.LiveWorkers(); n != 0 {
		t.Fatalf("%d worker goroutines alive after Close", n)
	}
}

// TestServerStreamMatchesWindows: streamed hops must classify exactly like
// independently submitted sliding windows of the same signal, ticket for
// ticket, and reuse the stream's fingerprint buffers rather than allocating
// per hop.
func TestServerStreamMatchesWindows(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 4)
	cfg := dsp.DefaultFrontend()
	// One long signal: several utterances back to back.
	var signal []int16
	for _, u := range utts {
		signal = append(signal, u...)
	}
	srv, err := NewServer(model, ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stream, err := srv.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	// Feed in uneven chunks to exercise hop reassembly.
	for off, step := 0, 0; off < len(signal); off += step {
		step = 777
		if off+step > len(signal) {
			step = len(signal) - off
		}
		tickets, err := stream.Submit(signal[off : off+step])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tickets {
			r := p.Wait()
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			got = append(got, r.Label)
		}
	}
	// Ground truth: one Submit per sliding window ending at each hop.
	utt := cfg.UtteranceSamples()
	var want []int
	for frames := cfg.NumFrames; ; frames++ {
		start := (frames - cfg.NumFrames) * cfg.StrideSamples
		if start+utt > len(signal) {
			break
		}
		p, err := srv.Submit(signal[start : start+utt])
		if err != nil {
			t.Fatal(err)
		}
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want = append(want, r.Label)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("stream produced %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hop %d: streamed label %d, windowed label %d", i, got[i], want[i])
		}
	}
	if stream.Streamer().Frames() < len(got) {
		t.Fatal("frame accounting inconsistent with delivered results")
	}
}

// TestServerMixedSubmitCallback runs concurrent Submit callers against
// concurrent SubmitFuncDeadline callers on a small queue, so workers
// interleave ticket and callback jobs while backpressure cycles — the -race
// target for the worker loop. Every result must match the serial
// classification.
func TestServerMixedSubmitCallback(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 12)
	want := serialResults(t, model, utts)
	srv, err := NewServer(model, ServerConfig{Workers: 3, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // Submit path
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, u := range utts {
					p, err := srv.Submit(u)
					if err != nil {
						errs <- err
						return
					}
					if r := p.Wait(); r.Err != nil || r.Label != want[i] {
						errs <- fmt.Errorf("goroutine %d utterance %d: label %d err %v, want %d", g, i, r.Label, r.Err, want[i])
						p.Release()
						return
					}
					p.Release()
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) { // callback path, a round of utterances in flight at once
			defer wg.Done()
			results := make([]Result, len(utts))
			for rep := 0; rep < 3; rep++ {
				var round sync.WaitGroup
				for i, u := range utts {
					round.Add(1)
					if err := srv.SubmitFuncDeadline(u, time.Time{}, func(r Result) { results[i] = r; round.Done() }); err != nil {
						errs <- err
						return
					}
				}
				round.Wait()
				for i, r := range results {
					if r.Err != nil || r.Label != want[i] {
						errs <- fmt.Errorf("callback goroutine %d utterance %d: label %d err %v, want %d", g, i, r.Label, r.Err, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPendingRelease: released tickets recycle through the pool and a
// reused ticket observes only its own submission's result.
func TestPendingRelease(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 6)
	want := serialResults(t, model, utts)
	srv, err := NewServer(model, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for rep := 0; rep < 4; rep++ {
		for i, u := range utts {
			p, err := srv.Submit(u)
			if err != nil {
				t.Fatal(err)
			}
			if r := p.Wait(); r.Label != want[i] {
				t.Fatalf("rep %d utterance %d: label %d, want %d", rep, i, r.Label, want[i])
			}
			p.Release()
		}
	}
}

// TestWorkerPanicIsolation: a panicking inference must complete its ticket
// with an ErrWorkerPanic-wrapped error, leave the pool at full strength,
// and not disturb later submissions — the resilience guarantee the netfront
// edge builds on.
func TestWorkerPanicIsolation(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 4)
	want := serialResults(t, model, utts)
	srv, err := NewServer(model, ServerConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.InjectPanic()
	p, err := srv.Submit(utts[0])
	if err != nil {
		t.Fatal(err)
	}
	r := p.Wait()
	if !errors.Is(r.Err, ErrWorkerPanic) {
		t.Fatalf("panicked submission: err = %v, want ErrWorkerPanic", r.Err)
	}
	if r.Label >= 0 {
		t.Fatalf("panicked submission produced label %d", r.Label)
	}
	if got := srv.Panics(); got != 1 {
		t.Fatalf("Panics() = %d, want 1", got)
	}
	if live, want := srv.LiveWorkers(), srv.Workers(); live != want {
		t.Fatalf("pool shrank after panic: %d live of %d", live, want)
	}
	// The pool still serves correctly after the recovered panic.
	for i, u := range utts {
		p, err := srv.Submit(u)
		if err != nil {
			t.Fatalf("submit %d after panic: %v", i, err)
		}
		if r := p.Wait(); r.Err != nil || r.Label != want[i] {
			t.Fatalf("utterance %d after panic: %+v, want label %d", i, r, want[i])
		}
	}
}

// TestWorkerPanicExactAccounting: a panic fails only the job it hit. With
// one worker and the queue filled before it starts, k injected panics are
// consumed by the first k jobs in queue order: exactly those complete with
// ErrWorkerPanic, every other job gets its serial label, Panics() counts k
// and the pool stays at full strength.
func TestWorkerPanicExactAccounting(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 6)
	want := serialResults(t, model, utts)
	srv, err := newServer(model, ServerConfig{Workers: 1, Queue: len(utts)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tickets := make([]*Pending, len(utts))
	for i, u := range utts {
		if tickets[i], err = srv.Submit(u); err != nil {
			t.Fatal(err)
		}
	}
	const k = 2
	for range k {
		srv.InjectPanic()
	}
	srv.start()
	for i, p := range tickets {
		r := p.Wait()
		if i < k {
			if !errors.Is(r.Err, ErrWorkerPanic) || r.Label != -1 {
				t.Errorf("job %d: %+v, want ErrWorkerPanic", i, r)
			}
			continue
		}
		if r.Err != nil || r.Label != want[i] {
			t.Errorf("job %d: %+v, want label %d", i, r, want[i])
		}
	}
	if got := srv.Panics(); got != k {
		t.Fatalf("Panics() = %d, want %d", got, k)
	}
	if live, want := srv.LiveWorkers(), srv.Workers(); live != want {
		t.Fatalf("pool shrank after panics: %d live of %d", live, want)
	}
}

// TestQueueDeadlineShedding: jobs whose queue deadline passed before a
// worker picked them up must be shed at dequeue with ErrDeadlineExceeded —
// cheap load-shedding instead of wasted inference — while undeadlined jobs
// are untouched.
func TestQueueDeadlineShedding(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 6)
	want := serialResults(t, model, utts)
	srv, err := newServer(model, ServerConfig{Workers: 1, Queue: len(utts) + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	expired := time.Now().Add(-time.Millisecond)
	results := make([]Result, len(utts)+1)
	var wg sync.WaitGroup
	submit := func(i int, u []int16, deadline time.Time) {
		wg.Add(1)
		if err := srv.SubmitFuncDeadline(u, deadline, func(r Result) {
			results[i] = r
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range utts {
		submit(i, u, expired)
	}
	submit(len(utts), utts[0], time.Time{}) // no deadline
	srv.start()
	wg.Wait()
	for i, r := range results[:len(utts)] {
		if !errors.Is(r.Err, ErrDeadlineExceeded) {
			t.Fatalf("stale job %d: err = %v, want ErrDeadlineExceeded", i, r.Err)
		}
	}
	if r := results[len(utts)]; r.Err != nil || r.Label != want[0] {
		t.Fatalf("undeadlined job swept up in shedding: %+v, want label %d", r, want[0])
	}
	if got := srv.Shed(); got != uint64(len(utts)) {
		t.Fatalf("Shed() = %d, want %d", got, len(utts))
	}
}

// TestSubmitAfterClose: every submission path must return ErrServerClosed
// deterministically after Close — never panic, never hang, never fire a
// callback — including the callback/deadline paths (the netfront edge calls
// these on live connections that race Close).
func TestSubmitAfterClose(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 2)
	srv, err := NewServer(model, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := srv.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := srv.Submit(utts[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit: %v", err)
	}
	fired := func(Result) { t.Error("callback of a rejected submission fired") }
	for _, deadline := range []time.Time{{}, time.Now().Add(time.Second)} {
		if err := srv.SubmitFuncDeadline(utts[0], deadline, fired); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("SubmitFuncDeadline(deadline %v): %v", deadline, err)
		}
		if err := srv.TrySubmitFuncDeadline(utts[0], deadline, fired); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("TrySubmitFuncDeadline(deadline %v): %v", deadline, err)
		}
	}
	for i, r := range submitAll(srv, utts) {
		if !errors.Is(r.Err, ErrServerClosed) || r.Label != -1 {
			t.Fatalf("Submit utterance %d: %+v", i, r)
		}
	}
	// A long chunk guarantees at least one hop submission attempt.
	if _, err := stream.Submit(utts[0]); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Stream.Submit: %v", err)
	}
	srv.Close() // still idempotent with a stream open
}
