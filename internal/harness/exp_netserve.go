package harness

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netfront"
	"repro/internal/netfront/client"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

func init() {
	register(Experiment{ID: "E14", Title: "Network serving edge (netfront over loopback)", Run: runE14})
}

// runE14 drives the wire-protocol serving stack the way external load
// would: one core.Server behind a netfront.FrontEnd on loopback TCP, swept
// over concurrent client connections firing one-shot classifications. The
// in-process Server throughput (E11's path, measured here at the same
// worker count) is the ceiling; the gap is the protocol's fixed
// per-utterance cost — framing, two socket hops, encode/decode — which is
// the honest price of having a service edge at all.
func runE14(ctx *Ctx) (*Table, error) {
	perConn := 64
	if ctx.Quick {
		perConn = 16
	}
	model, err := tflm.BuildRandomTinyConv(1, 7)
	if err != nil {
		return nil, err
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utts := make([][]int16, 16)
	for i := range utts {
		utts[i] = gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0).Samples
	}

	srv, err := core.NewServer(model, core.ServerConfig{Workers: 4, Queue: 64})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// In-process baseline: the same pool driven by direct Submit/Wait.
	baseline := func(total int) (float64, error) {
		tickets := make([]*core.Pending, 0, 16)
		start := time.Now()
		done := 0
		for done < total {
			burst := min(16, total-done)
			tickets = tickets[:0]
			for i := 0; i < burst; i++ {
				p, err := srv.Submit(utts[(done+i)%len(utts)])
				if err != nil {
					return 0, err
				}
				tickets = append(tickets, p)
			}
			for _, p := range tickets {
				if r := p.Wait(); r.Err != nil {
					return 0, r.Err
				}
				p.Release()
			}
			done += burst
		}
		return float64(total) / time.Since(start).Seconds(), nil
	}
	if _, err := baseline(16); err != nil { // warm-up
		return nil, err
	}
	basePerSec, err := baseline(4 * perConn)
	if err != nil {
		return nil, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fe := netfront.NewFrontEnd(srv, netfront.Config{})
	go fe.Serve(l)
	defer fe.Close()

	rows := [][]string{{
		"in-process", "-", fmt.Sprintf("%.0f utt/s", basePerSec), "1.00x",
	}}
	for _, conns := range []int{1, 4, 16} {
		clients := make([]*client.Client, conns)
		for i := range clients {
			if clients[i], err = client.Dial("tcp", l.Addr().String()); err != nil {
				return nil, err
			}
		}
		for _, c := range clients { // warm connection buffers
			if _, err := c.Classify(utts[0]); err != nil {
				return nil, err
			}
		}
		var wg sync.WaitGroup
		errCh := make(chan error, conns)
		start := time.Now()
		for ci, c := range clients {
			wg.Add(1)
			go func(c *client.Client, ci int) {
				defer wg.Done()
				for i := 0; i < perConn; i++ {
					_, err := c.Classify(utts[(ci+i)%len(utts)])
					for errors.Is(err, client.ErrBusy) {
						_, err = c.Classify(utts[(ci+i)%len(utts)])
					}
					if err != nil {
						errCh <- err
						return
					}
				}
			}(c, ci)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, c := range clients {
			c.Close()
		}
		select {
		case err := <-errCh:
			return nil, err
		default:
		}
		perSec := float64(conns*perConn) / elapsed.Seconds()
		ctx.Logf("E14: %d conns: %.0f utt/s (in-process %.0f)", conns, perSec, basePerSec)
		rows = append(rows, []string{
			fmt.Sprintf("%d conns", conns),
			fmt.Sprintf("%d", conns*perConn),
			fmt.Sprintf("%.0f utt/s", perSec),
			fmt.Sprintf("%.2fx", perSec/basePerSec),
		})
	}
	return &Table{
		ID:      "E14",
		Title:   "Network serving edge (netfront over loopback)",
		Claim:   "(engine property, no paper counterpart: the ML-as-a-service edge of §V driven by external connections)",
		Headers: []string{"Path", "Utterances", "Throughput", "vs in-process"},
		Rows:    rows,
		Wall:    Wall{Cols: []int{2, 3}},
		Notes: []string{
			"loopback TCP, one-shot requests: each utterance pays framing + two socket hops + decode; stream chunking amortizes this, one-shots bound it",
			"results are bit-exact with the direct path (netfront round-trip tests); BUSY replies are retried by the load generators",
		},
	}, nil
}
