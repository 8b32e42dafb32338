package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/speechcmd"
	"repro/internal/tflm"
)

// Model seeds of the two random tiny_conv models. The model is part of the
// program under test, not of the workload, so it does not follow --seed;
// tenants-swap alternates between the primary and the alternate model.
const (
	primaryModelSeed   = 20
	alternateModelSeed = 8
)

// corpusSize is the number of distinct utterances a run draws from.
const corpusSize = 48

// buildModel builds one of the benchmark's models.
func buildModel(seed int64) (*tflm.Model, error) { return tflm.BuildRandomTinyConv(1, seed) }

// corpus is the seeded utterance set of a run: several labels spoken by
// several speakers, synthesised by speechcmd from --seed.
type corpus struct {
	utts   [][]int16
	labels []int // spoken class, for the report only
}

func newCorpus(seed int64) *corpus {
	gen := speechcmd.NewGenerator(speechcmd.Config{
		NoiseRMS:         speechcmd.DefaultConfig().NoiseRMS,
		SpeakerVariation: speechcmd.DefaultConfig().SpeakerVariation,
		Seed:             seed,
	})
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{}
	for i := 0; i < corpusSize; i++ {
		ex := gen.Example(rng.Intn(speechcmd.NumLabels), rng.Intn(24), rng.Intn(4))
		tagID(ex.Samples, 0) // untagged: see idTail
		c.utts = append(c.utts, ex.Samples)
		c.labels = append(c.labels, ex.Label)
	}
	return c
}

// order returns n corpus indices drawn from rng: the utterance each
// operation of a phase sends.
func (c *corpus) order(rng *rand.Rand, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(len(c.utts))
	}
	return idx
}

// refPipe is the in-process reference: a standalone frontend and
// interpreter on the served model, quantising the fingerprint exactly as
// the serving path does.
type refPipe struct {
	fe *dsp.Frontend
	ip *tflm.Interpreter
	fp []uint8
}

func newRefPipe(model *tflm.Model) (*refPipe, error) {
	fe, err := dsp.NewFrontend(dsp.DefaultFrontend())
	if err != nil {
		return nil, err
	}
	ip, err := tflm.NewInterpreter(model.Clone())
	if err != nil {
		return nil, err
	}
	return &refPipe{fe: fe, ip: ip}, nil
}

// label classifies one utterance.
func (p *refPipe) label(utt []int16) (int, error) {
	p.fp = p.fe.ExtractInto(p.fp, utt)
	return p.labelFP(p.fp)
}

// labelFP classifies one fingerprint.
func (p *refPipe) labelFP(fp []uint8) (int, error) {
	in := p.ip.Input(0)
	for i, f := range fp {
		in.I8[i] = int8(int32(f) - 128)
	}
	if err := p.ip.Invoke(); err != nil {
		return -1, err
	}
	return tflm.Argmax(p.ip.Output(0)), nil
}

// labels returns the reference label of every corpus utterance.
func (p *refPipe) labels(c *corpus) ([]int, error) {
	out := make([]int, len(c.utts))
	for i, u := range c.utts {
		l, err := p.label(u)
		if err != nil {
			return nil, fmt.Errorf("reference on utterance %d: %w", i, err)
		}
		out[i] = l
	}
	return out, nil
}

// distinct counts the different values in labels.
func distinct(labels []int) int {
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	return len(seen)
}

// streamScript is one stream session: its chunks in send order and, from
// the reference streamer, the label of every hop and how many hops each
// chunk completes.
type streamScript struct {
	chunks    [][]int16
	hopsAfter []int // hops completed by chunk i
	labels    []int // reference label per hop
	samples   int
}

// chunkRange is the range [lo, hi) stream chunk sizes are drawn from, in
// samples. No range is aligned to the 320-sample hop, so the streamer's
// carry path runs.
type chunkRange struct{ lo, hi int }

// Closed-loop sessions send chunks of about one hop (12-32 ms of audio), so
// nearly every Send completes at most one hop and the per-hop latency is
// not a mix of first and later hops of one chunk. The capacity search
// sends chunks of 19-81 ms, which keeps its arrival rate, and so the
// generator's own load, a few times lower.
var (
	closedChunks = chunkRange{200, 520}
	openChunks   = chunkRange{300, 1300}
)

// newStreamScript concatenates corpus utterances into seconds of audio,
// cuts it into random chunks from the given range and replays it through a reference streamer
// the same way core.Server.SubmitStream pushes it, so hop h of the served
// stream must carry labels[h].
func newStreamScript(c *corpus, rng *rand.Rand, seconds int, chunks chunkRange, ref *refPipe) (*streamScript, error) {
	var audio []int16
	for len(audio) < seconds*16000 {
		audio = append(audio, c.utts[rng.Intn(len(c.utts))]...)
	}
	s := &streamScript{samples: len(audio)}
	for len(audio) > 0 {
		n := min(len(audio), chunks.lo+rng.Intn(chunks.hi-chunks.lo))
		s.chunks = append(s.chunks, audio[:n])
		audio = audio[n:]
	}
	st := dsp.NewStreamer(ref.fe)
	var fp []uint8
	for _, chunk := range s.chunks {
		hops := 0
		for len(chunk) > 0 {
			n := min(st.NeedSamples(), len(chunk))
			completed := st.Push(chunk[:n])
			chunk = chunk[n:]
			if completed == 0 || !st.Ready() {
				continue
			}
			fp = st.Fingerprint(fp)
			l, err := ref.labelFP(fp)
			if err != nil {
				return nil, err
			}
			s.labels = append(s.labels, l)
			hops++
		}
		s.hopsAfter = append(s.hopsAfter, hops)
	}
	return s, nil
}

// idTail is where a request id rides in an utterance: the last two samples,
// which lie past the frontend's UtteranceSamples window, so tagging a
// request does not change its label. The engine decorator reads it back to
// join its span to the client's.
const idTail = 2

// tagID writes id into the tail of utt.
func tagID(utt []int16, id uint32) {
	n := len(utt)
	utt[n-2] = int16(uint16(id))
	utt[n-1] = int16(uint16(id >> 16))
}

// readID recovers the id tagID wrote (0 when untagged).
func readID(utt []int16) uint32 {
	n := len(utt)
	if n < idTail {
		return 0
	}
	return uint32(uint16(utt[n-2])) | uint32(uint16(utt[n-1]))<<16
}
