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

// TestPipelineMatchesSerial: RunBatch must reproduce the serial
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
		results := srv.RunBatch(utts)
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
			if r.Probs != nil {
				t.Fatalf("workers=%d utterance %d: probs present without WithProbs", workers, i)
			}
		}
	}
}

// TestPipelineWithProbs: with WithProbs, every RunBatch result carries one
// probability per class whose argmax is the label.
func TestPipelineWithProbs(t *testing.T) {
	model, utts, _ := pipelineFixture(t, 6)
	srv, err := NewServer(model, ServerConfig{Workers: 2, WithProbs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, r := range srv.RunBatch(utts) {
		if r.Err != nil {
			t.Fatalf("utterance %d: %v", i, r.Err)
		}
		if len(r.Probs) != speechcmd.NumLabels {
			t.Fatalf("utterance %d: %d probs, want %d", i, len(r.Probs), speechcmd.NumLabels)
		}
		best, bestIdx := -1.0, -1
		for c, p := range r.Probs {
			if p > best {
				best, bestIdx = p, c
			}
		}
		if bestIdx != r.Label {
			t.Fatalf("utterance %d: label %d but probs argmax %d", i, r.Label, bestIdx)
		}
	}
}

// TestPipelineEmptyBatchAndDefaults: the zero ServerConfig yields a usable
// pool, and an empty batch returns no results.
func TestPipelineEmptyBatchAndDefaults(t *testing.T) {
	model, _, _ := pipelineFixture(t, 0)
	srv, err := NewServer(model, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Workers() < 1 {
		t.Fatalf("default pool size %d", srv.Workers())
	}
	if res := srv.RunBatch(nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
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
