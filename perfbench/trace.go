package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; spans past it
// are dropped and counted.
const maxSpans = 1 << 18

// span is one timed call into a layer. Spans of one request share its id;
// parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	id         uint32
	parent     int32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	t0      time.Time
	n       atomic.Int64
	dropped atomic.Int64
	spans   []span
	// byID maps a request id to the index of its root span, so a span
	// opened inside the server (the engine decorator) finds its parent.
	byID []atomic.Int32
}

// maxTaggedID bounds request ids; ids are per-run operation numbers.
const maxTaggedID = 1 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, maxSpans), byID: make([]atomic.Int32, maxTaggedID)}
}

// begin opens a span and returns its handle (-1 when not tracing).
func (t *tracer) begin(name string, id uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= maxSpans {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{name: name, id: id, parent: parent, start: int64(time.Since(t.t0))}
	return int32(i)
}

// add records a span that has already ended.
func (t *tracer) add(name string, start, end time.Time) {
	if h := t.begin(name, 0, -1); h >= 0 {
		t.spans[h].start = int64(start.Sub(t.t0))
		t.spans[h].end = int64(end.Sub(t.t0))
	}
}

// end closes span h.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = int64(time.Since(t.t0))
}

// root opens the root span of request id and registers it for children.
func (t *tracer) root(name string, id uint32) int32 {
	h := t.begin(name, id, -1)
	if t != nil && h >= 0 && id > 0 && id < maxTaggedID {
		t.byID[id].Store(h + 1)
	}
	return h
}

// parentOf returns the root span of request id, or -1.
func (t *tracer) parentOf(id uint32) int32 {
	if t == nil || id == 0 || id >= maxTaggedID {
		return -1
	}
	return t.byID[id].Load() - 1
}

// timed runs f inside a span.
func (t *tracer) timed(name string, f func()) {
	h := t.begin(name, 0, -1)
	f()
	t.end(h)
}

func (t *tracer) len() int { return int(min(t.n.Load(), maxSpans)) }

// stat is the p50 duration and p50 self time (duration minus the time its
// children cover) of the spans of one name.
type stat struct{ p50, self time.Duration }

// stats derives per-name statistics from the recorded spans.
func (t *tracer) stats() map[string]stat {
	all := t.spans[:t.len()]
	child := make([]int64, len(all))
	for _, s := range all {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	durs := map[string][]time.Duration{}
	selfs := map[string][]time.Duration{}
	for i, s := range all {
		if s.end <= 0 || s.end < s.start {
			continue
		}
		d := s.end - s.start
		durs[s.name] = append(durs[s.name], time.Duration(d))
		selfs[s.name] = append(selfs[s.name], time.Duration(d-child[i]))
	}
	out := map[string]stat{}
	for name, d := range durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		s := selfs[name]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[name] = stat{p50: quantile(d, 0.5), self: quantile(s, 0.5)}
	}
	return out
}

// write stores the spans as JSON lines under .bench_build/perfbench in the
// working directory and returns the file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans[:t.len()] {
		err = enc.Encode(map[string]any{"i": i, "name": s.name, "id": s.id, "parent": s.parent, "start_ns": s.start, "end_ns": s.end})
		if err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if d := t.dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans dropped past %d\n", d, maxSpans)
	}
	return path, f.Close()
}
