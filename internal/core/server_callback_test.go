package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitFuncMatchesSerial: callback submissions must classify exactly
// like the serial reference, each callback firing exactly once.
func TestSubmitFuncMatchesSerial(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 12)
	want := serialResults(t, model, utts)
	for _, workers := range []int{1, 3} {
		srv, err := NewServer(model, ServerConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(utts))
		fired := make([]atomic.Int32, len(utts))
		var wg sync.WaitGroup
		for i, u := range utts {
			i := i
			wg.Add(1)
			if err := srv.SubmitFuncDeadline(u, time.Time{}, func(r Result) {
				defer wg.Done()
				fired[i].Add(1)
				if r.Err != nil {
					t.Errorf("utterance %d: %v", i, r.Err)
					return
				}
				got[i] = r.Label
			}); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		for i := range utts {
			if n := fired[i].Load(); n != 1 {
				t.Fatalf("workers=%d utterance %d: callback fired %d times", workers, i, n)
			}
			if got[i] != want[i] {
				t.Fatalf("workers=%d utterance %d: label %d, want %d", workers, i, got[i], want[i])
			}
		}
		srv.Close()
	}
}

// TestTrySubmitFuncBackpressure: with the workers not draining, the callback
// path must report ErrQueueFull past queue capacity, and everything accepted
// must still fire once the workers start.
func TestTrySubmitFuncBackpressure(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 4)
	srv, err := newServer(model, ServerConfig{Workers: 1, Queue: len(utts)})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int32
	for i, u := range utts {
		if err := srv.TrySubmitFuncDeadline(u, time.Time{}, func(Result) { fired.Add(1) }); err != nil {
			t.Fatalf("submit %d within capacity: %v", i, err)
		}
	}
	if err := srv.TrySubmitFuncDeadline(utts[0], time.Time{}, func(Result) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond capacity: err = %v, want ErrQueueFull", err)
	}
	srv.start()
	srv.Close()
	if n := fired.Load(); int(n) != len(utts) {
		t.Fatalf("after Close: %d callbacks fired, want %d (drain contract)", n, len(utts))
	}
}

// TestStreamOnResultOrdering: stream callbacks must arrive strictly in hop
// order with the same labels as the ticket path, across pool sizes that
// complete hops out of order.
func TestStreamOnResultOrdering(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 6)
	var signal []int16
	for _, u := range utts {
		signal = append(signal, u...)
	}
	// Ticket-path ground truth.
	ref, err := NewServer(model, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refStream, err := ref.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	tickets, err := refStream.Submit(signal)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tickets {
		r := p.Wait()
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		want = append(want, r.Label)
		p.Release()
	}
	ref.Close()
	if len(want) == 0 {
		t.Fatal("fixture produced no hops")
	}

	for _, workers := range []int{1, 4} {
		srv, err := NewServer(model, ServerConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := srv.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got []int
		var hops []uint64
		stream.OnResult(func(hop uint64, r Result) {
			mu.Lock()
			defer mu.Unlock()
			if r.Err != nil {
				t.Errorf("hop %d: %v", hop, r.Err)
			}
			got = append(got, r.Label)
			hops = append(hops, hop)
		})
		// Uneven chunks exercise hop reassembly under the callback path.
		for off, step := 0, 0; off < len(signal); off += step {
			step = 1234
			if off+step > len(signal) {
				step = len(signal) - off
			}
			ts, err := stream.Submit(signal[off : off+step])
			if err != nil {
				t.Fatal(err)
			}
			if len(ts) != 0 {
				t.Fatal("callback stream returned tickets")
			}
		}
		srv.Close() // drain contract: all callbacks fired after Close
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d callbacks, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if hops[i] != uint64(i) {
				t.Fatalf("workers=%d: callback %d carried hop %d — out of order", workers, i, hops[i])
			}
			if got[i] != want[i] {
				t.Fatalf("workers=%d hop %d: label %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSeqDeliveryReorders exercises the sequencer directly with adversarial
// completion orders: whatever order hops finish in, callbacks fire 0,1,2,...
func TestSeqDeliveryReorders(t *testing.T) {
	const n = 16
	orders := [][]int{
		{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, // fully reversed
		{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14}, // pairwise swapped
		{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15}, // evens then odds
	}
	for _, order := range orders {
		var got []uint64
		q := &seqDelivery{
			fn: func(hop uint64, r Result) {
				if r.Label != int(hop) {
					t.Errorf("hop %d delivered label %d", hop, r.Label)
				}
				got = append(got, hop)
			},
			pending: make(map[uint64]Result),
		}
		for _, seq := range order {
			q.deliver(uint64(seq), Result{Label: seq})
		}
		if len(got) != n {
			t.Fatalf("order %v: %d callbacks, want %d", order, len(got), n)
		}
		for i, hop := range got {
			if hop != uint64(i) {
				t.Fatalf("order %v: position %d got hop %d", order, i, hop)
			}
		}
		if len(q.pending) != 0 {
			t.Fatalf("order %v: %d results stuck in pending", order, len(q.pending))
		}
	}
}

// TestServerCloseVsSubmitStream races Close against in-flight Stream.Submit
// callers: every hop a Stream.Submit call accepted
// must fire its callback exactly once — all before Close returns — the
// remainder of an interrupted chunk must surface ErrServerClosed, and
// nothing may deadlock. Run with -race.
func TestServerCloseVsSubmitStream(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 4)
	var signal []int16
	for _, u := range utts {
		signal = append(signal, u...)
	}
	for round := 0; round < 8; round++ {
		srv, err := NewServer(model, ServerConfig{Workers: 2, Queue: 2})
		if err != nil {
			t.Fatal(err)
		}
		const streams = 3
		var accepted, fired [streams]atomic.Int64
		var wg sync.WaitGroup
		for sid := 0; sid < streams; sid++ {
			sid := sid
			stream, err := srv.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			stream.OnResult(func(hop uint64, r Result) {
				if r.Err != nil {
					t.Errorf("stream %d hop %d: %v", sid, hop, r.Err)
				}
				if int64(hop) != fired[sid].Load() {
					t.Errorf("stream %d: hop %d fired after %d callbacks", sid, hop, fired[sid].Load())
				}
				fired[sid].Add(1)
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				hopSamples := stream.Streamer().Frontend().Config().StrideSamples
				for off := 0; off+hopSamples <= len(signal); off += hopSamples {
					before := stream.hops
					_, err := stream.Submit(signal[off : off+hopSamples])
					accepted[sid].Add(int64(stream.hops - before))
					if err != nil {
						if !errors.Is(err, ErrServerClosed) {
							t.Errorf("stream %d: %v", sid, err)
						}
						return
					}
				}
			}()
		}
		// Let the streams make some progress, then slam the door.
		for fired[0].Load() == 0 && accepted[0].Load() < 4 {
			runtime.Gosched()
		}
		srv.Close()
		// Drain contract: at the moment Close returned, every accepted hop
		// had fired. Record the counts before the goroutines finish erroring
		// out so the assertion really tests Close, not wg.Wait.
		var acceptedAtClose, firedAtClose [streams]int64
		for sid := 0; sid < streams; sid++ {
			firedAtClose[sid] = fired[sid].Load()
			acceptedAtClose[sid] = accepted[sid].Load()
		}
		wg.Wait()
		for sid := 0; sid < streams; sid++ {
			if firedAtClose[sid] < acceptedAtClose[sid] {
				t.Fatalf("round %d stream %d: %d hops accepted before Close returned but only %d callbacks fired",
					round, sid, acceptedAtClose[sid], firedAtClose[sid])
			}
			if a, f := accepted[sid].Load(), fired[sid].Load(); a != f {
				t.Fatalf("round %d stream %d: %d hops accepted, %d callbacks fired", round, sid, a, f)
			}
		}
	}
}

// TestSubmitFuncAllocFree: the steady-state callback submission path must
// not allocate on the submitting goroutine (tickets recycle through the
// pool).
func TestSubmitFuncAllocFree(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 1)
	srv, err := NewServer(model, ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan struct{}, 1)
	fn := func(Result) { done <- struct{}{} }
	// Warm the pools.
	for i := 0; i < 8; i++ {
		if err := srv.SubmitFuncDeadline(utts[0], time.Time{}, fn); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := srv.SubmitFuncDeadline(utts[0], time.Time{}, fn); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if allocs > 0 {
		t.Fatalf("SubmitFuncDeadline steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStreamOnResultAllocFree: callback-mode stream hops allocate nothing in
// steady state — hop slots recycle through the workers and results reach
// the sequencer by value — with one worker, and with two, where hops
// complete out of order and park in the sequencer.
func TestStreamOnResultAllocFree(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 2)
	var signal []int16
	for _, u := range utts {
		signal = append(signal, u...)
	}
	for _, workers := range []int{1, 2} {
		srv, err := NewServer(model, ServerConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		stream, err := srv.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		// Room for every hop the stream can have in flight, so a callback
		// never blocks its worker.
		done := make(chan struct{}, stream.srv.streamScratch())
		var failed atomic.Int32
		stream.OnResult(func(_ uint64, r Result) {
			if r.Err != nil {
				failed.Add(1)
			}
			done <- struct{}{}
		})
		chunk := 4 * stream.Streamer().Frontend().Config().StrideSamples
		off := 0
		// run pushes four hops of audio, wrapping around the signal, and
		// waits for every hop it submitted.
		run := func() {
			if off+chunk > len(signal) {
				off = 0
			}
			before := stream.Hops()
			if _, err := stream.Submit(signal[off : off+chunk]); err != nil {
				t.Fatal(err)
			}
			off += chunk
			for n := stream.Hops() - before; n > 0; n-- {
				<-done
			}
		}
		for i := 0; i < 2*len(signal)/chunk; i++ { // fill the window, warm the pools
			run()
		}
		allocs := testing.AllocsPerRun(50, run)
		srv.Close()
		if n := failed.Load(); n != 0 {
			t.Fatalf("workers=%d: %d hops failed", workers, n)
		}
		if allocs > 0 {
			t.Fatalf("workers=%d: OnResult stream allocates %.1f objects per 4 hops, want 0", workers, allocs)
		}
	}
}

// runPanickingStream streams exactly 51 hops through a server with the
// given worker count whose OnResult callback panics at the hops panicAt
// names, then closes the server. Every other hop must have been delivered exactly once, in hop
// order; nothing may stay parked in the sequencer; and Panics must count
// each panicking hop once.
func runPanickingStream(t *testing.T, workers int, panicAt map[uint64]bool) {
	t.Helper()
	const hops = 51
	model, utts, _ := pipelineFixture(t, 3)
	srv, err := NewServer(model, ServerConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := srv.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.Streamer().Frontend().Config()
	var signal []int16
	for _, u := range utts {
		signal = append(signal, u...)
	}
	signal = signal[:cfg.UtteranceSamples()+(hops-1)*cfg.StrideSamples]
	var delivered []uint64
	stream.OnResult(func(hop uint64, r Result) {
		if panicAt[hop] {
			panic("callback panic")
		}
		if r.Err != nil {
			t.Errorf("hop %d: %v", hop, r.Err)
		}
		delivered = append(delivered, hop)
	})
	if _, err := stream.Submit(signal); err != nil {
		t.Fatal(err)
	}
	if n := stream.Hops(); n != hops {
		t.Fatalf("stream submitted %d hops, want %d", n, hops)
	}
	srv.Close()
	var want []uint64
	for hop := uint64(0); hop < hops; hop++ {
		if !panicAt[hop] {
			want = append(want, hop)
		}
	}
	if len(delivered) != len(want) {
		t.Fatalf("after Close: %d callbacks delivered, want %d (panics at %v)", len(delivered), len(want), panicAt)
	}
	for i, hop := range delivered {
		if hop != want[i] {
			t.Fatalf("callback %d carried hop %d, want %d", i, hop, want[i])
		}
	}
	stream.sq.mu.Lock()
	parked := len(stream.sq.pending)
	stream.sq.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d results left parked in the sequencer", parked)
	}
	if got := srv.Panics(); got != uint64(len(panicAt)) {
		t.Fatalf("Panics() = %d, want %d", got, len(panicAt))
	}
}

// TestStreamOnResultPanicDoesNotStall: with one worker, a callback that
// panics at hop 2 costs that hop only — the other 50 still arrive, in
// order, by Close.
func TestStreamOnResultPanicDoesNotStall(t *testing.T) {
	runPanickingStream(t, 1, map[uint64]bool{2: true})
}

// TestStreamOnResultRandomPanics is TestStreamOnResultPanicDoesNotStall
// with the callback panicking at seeded random hops, the first and the last
// hop among the candidates, and two workers, so hops also complete out of
// order and park in the sequencer.
func TestStreamOnResultRandomPanics(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		panicAt := map[uint64]bool{}
		for hop := uint64(0); hop < 51; hop++ {
			if r.Intn(6) == 0 {
				panicAt[hop] = true
			}
		}
		panicAt[uint64(r.Intn(2))*50] = true
		runPanickingStream(t, 2, panicAt)
	}
}
