package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer records spans in memory around the benchmark's calls into each
// layer and writes them out when the run ends. A nil *tracer records
// nothing, so the untraced runs pay one nil check per span.

// maxSpans bounds the span buffer; spans past it are counted as dropped.
const maxSpans = 1 << 18

type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"` // id of the op's root span; shared by every span of one op
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0      time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span; end records it.
type spanRef struct {
	t *tracer
	s span
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens the root span of a new op.
func (t *tracer) root(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.next.Add(1)
	return spanRef{t, span{ID: id, Op: id, Name: name, Start: t.now()}}
}

// child opens a span caused by r, in r's op.
func (r spanRef) child(name string) spanRef {
	if r.t == nil {
		return spanRef{}
	}
	return spanRef{r.t, span{ID: r.t.next.Add(1), Op: r.s.Op, Parent: r.s.ID, Name: name, Start: r.t.now()}}
}

func (r spanRef) end() {
	if r.t == nil {
		return
	}
	r.s.End = r.t.now()
	r.t.mu.Lock()
	if len(r.t.spans) < maxSpans {
		r.t.spans = append(r.t.spans, r.s)
	} else {
		r.t.dropped++
	}
	r.t.mu.Unlock()
}

// layerSummary is one span name's row of the per-layer summary.
type layerSummary struct {
	Name         string  `json:"name"`
	Count        int     `json:"count"`
	MedianMs     float64 `json:"median_ms"`
	MedianSelfMs float64 `json:"median_self_ms"`
	TotalSelfMs  float64 `json:"total_self_ms"`
}

// summarize computes, per span name, the median duration and the self time:
// a span's duration minus the part of its interval its children cover.
func summarize(spans []span) []layerSummary {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		self := float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], self)
	}
	out := make([]layerSummary, 0, len(durs))
	for name, d := range durs {
		var total float64
		for _, v := range selfs[name] {
			total += v
		}
		out = append(out, layerSummary{Name: name, Count: len(d), MedianMs: median(d), MedianSelfMs: median(selfs[name]), TotalSelfMs: total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalSelfMs > out[j].TotalSelfMs })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// traceFile is what the traced run writes.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Overhead map[string]float64 `json:"tracing_overhead"`
	Summary  []layerSummary     `json:"summary"`
	Dropped  int64              `json:"dropped_spans"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, overhead map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f := traceFile{Workload: workload, Seed: seed, Overhead: overhead, Summary: summarize(t.spans), Dropped: t.dropped, Spans: t.spans}
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}
