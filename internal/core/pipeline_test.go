package core

import (
	"testing"

	"repro/internal/dsp"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

func pipelineFixture(t testing.TB, n int) (*tflm.Model, [][]int16, []int) {
	t.Helper()
	model, err := tflm.BuildRandomTinyConv(1, 31)
	if err != nil {
		t.Fatal(err)
	}
	gen := speechcmd.NewGenerator(speechcmd.DefaultConfig())
	utts := make([][]int16, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		ex := gen.Example(i%speechcmd.NumLabels, i/speechcmd.NumLabels, 0)
		utts[i] = ex.Samples
		labels[i] = ex.Label
	}
	return model, utts, labels
}

// serialResults classifies the batch on a single interpreter, the ground
// truth the concurrent server must reproduce utterance for utterance.
func serialResults(t testing.TB, model *tflm.Model, utts [][]int16) []int {
	t.Helper()
	ip, err := tflm.NewInterpreter(model.Clone())
	if err != nil {
		t.Fatal(err)
	}
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(utts))
	for i, u := range utts {
		fp := fe.Extract(u)
		in := ip.Input(0)
		for j, f := range fp {
			in.I8[j] = int8(int32(f) - 128)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		out[i] = tflm.Argmax(ip.Output(0))
	}
	return out
}

// submitAll classifies utts through Submit tickets, all submitted before
// any is waited on, and returns one Result per utterance in order; a
// submission error is that utterance's Result.
func submitAll(srv *Server, utts [][]int16) []Result {
	results := make([]Result, len(utts))
	tickets := make([]*Pending, len(utts))
	for i, u := range utts {
		p, err := srv.Submit(u)
		if err != nil {
			results[i] = Result{Label: -1, Err: err}
			continue
		}
		tickets[i] = p
	}
	for i, p := range tickets {
		if p != nil {
			results[i] = p.Wait()
			p.Release()
		}
	}
	return results
}

// TestPipelineMatchesSerial: pipelined Submit tickets must reproduce the serial
// classification utterance for utterance, for every pool size.
func TestPipelineMatchesSerial(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 24)
	want := serialResults(t, model, utts)
	for _, workers := range []int{1, 2, 4} {
		srv, err := NewServer(model, ServerConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if srv.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", srv.Workers(), workers)
		}
		results := submitAll(srv, utts)
		srv.Close()
		if len(results) != len(utts) {
			t.Fatalf("got %d results for %d utterances", len(results), len(utts))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d utterance %d: %v", workers, i, r.Err)
			}
			if r.Label != want[i] {
				t.Fatalf("workers=%d utterance %d: label %d, want %d", workers, i, r.Label, want[i])
			}
		}
	}
}

// TestPipelineDefaults: the zero ServerConfig yields a usable pool.
func TestPipelineDefaults(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 1)
	srv, err := NewServer(model, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Workers() < 1 {
		t.Fatalf("default pool size %d", srv.Workers())
	}
	if r := submitAll(srv, utts)[0]; r.Err != nil {
		t.Fatalf("default pool: %v", r.Err)
	}
}

// TestPipelineRejectsIncompatibleModel: NewServer must refuse a model whose
// input does not match the frontend's fingerprint geometry.
func TestPipelineRejectsIncompatibleModel(t *testing.T) {
	model, _, _ := pipelineFixture(t, 0)
	small := dsp.DefaultFrontend()
	small.NumFrames = 7 // fingerprint no longer matches the model input
	if _, err := NewServer(model, ServerConfig{Workers: 1, Frontend: small}); err == nil {
		t.Fatal("expected incompatible-fingerprint error")
	}
}
