package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

func init() {
	register(Experiment{ID: "E11", Title: "Host batch-inference throughput (pipeline scaling)", Run: runE11})
}

// runE11 measures the host-side serving path: a batch of utterances
// submitted as core.Server Submit tickets, all in flight at once, fanned
// across worker pools of increasing size. The paper's device
// numbers are simulated elsewhere (E1/E2); this experiment characterizes
// how fast the reproduction itself can serve traffic — the implicit-GEMM
// kernels plus the zero-alloc DSP frontend under concurrency.
func runE11(ctx *Ctx) (*Table, error) {
	batch := 256
	if ctx.Quick {
		batch = 64
	}
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		return nil, err
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utts := make([][]int16, batch)
	for i := range utts {
		ex := gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0)
		utts[i] = ex.Samples
	}

	var rows [][]string
	var base float64
	for _, workers := range []int{1, 2, 4} {
		srv, err := core.NewServer(model, core.ServerConfig{Workers: workers})
		if err != nil {
			return nil, err
		}
		// One warm-up pass settles lazy twiddle tables and scheduler state.
		if err := submitAll(srv, utts[:min(len(utts), 8)]); err != nil {
			return nil, fmt.Errorf("E11 warm-up: %w", err)
		}
		defer srv.Close()
		ctx.Logf("E11: %d workers, batch %d", workers, batch)
		start := time.Now()
		err = submitAll(srv, utts)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("E11: %w", err)
		}
		perSec := float64(batch) / elapsed.Seconds()
		if workers == 1 {
			base = perSec
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%d", batch),
			fmt.Sprintf("%.1f ms", float64(elapsed.Microseconds())/1000),
			fmt.Sprintf("%.0f utt/s", perSec),
			fmt.Sprintf("%.2fx", perSec/base),
		})
	}
	return &Table{
		ID:      "E11",
		Title:   "Host batch-inference throughput (pipeline scaling)",
		Claim:   "(engine property, no paper counterpart: host-side serving throughput)",
		Headers: []string{"Workers", "Batch", "Wall time", "Throughput", "Speedup"},
		Rows:    rows,
		Wall:    Wall{Cols: []int{2, 3, 4}},
		Notes:   []string{"per-worker interpreters share weight tensors via tflm.Model.Clone; frontends and scratch are private"},
	}, nil
}

// submitAll submits every utterance as a Submit ticket before waiting on
// any, so the batch spreads over the whole worker pool, then waits for the
// tickets in order and returns the first failure.
func submitAll(srv *core.Server, utts [][]int16) error {
	tickets := make([]*core.Pending, 0, len(utts))
	var first error
	for _, u := range utts {
		p, err := srv.Submit(u)
		if err != nil {
			first = err
			break
		}
		tickets = append(tickets, p)
	}
	for i, p := range tickets {
		if r := p.Wait(); r.Err != nil && first == nil {
			first = fmt.Errorf("utterance %d: %w", i, r.Err)
		}
		p.Release()
	}
	return first
}
