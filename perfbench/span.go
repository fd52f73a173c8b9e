package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative
// to the tracer's start, the span that caused it (0 for a root), and the
// operation it belongs to (every span of one request or one simulation
// shares an op id).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method does nothing, so untraced runs
// pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id for the spans of one request or one
// simulation (0 when tracing is off).
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// layerTime is the total duration and total self time of the spans of
// one name. A span's self time is its duration minus the part of it that
// its child spans cover.
type layerTime struct {
	count      int
	total, own time.Duration
}

// byName aggregates spans by name.
func (t *tracer) byName() map[string]layerTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.count++
		lt.total += time.Duration(s.End - s.Start)
		lt.own += time.Duration(s.End-s.Start) - covered(children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum int64
	lo, hi := ss[0].Start, ss[0].End
	for _, s := range ss[1:] {
		if s.Start > hi {
			sum += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return time.Duration(sum + hi - lo)
}

// writeTo writes every span, one JSON object per line, to
// dir/spans-<workload>-seed<seed>.ndjson and returns the path.
func (t *tracer) writeTo(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// summarize prints, per span name, the count, total and self time.
func (t *tracer) summarize(w io.Writer) {
	agg := t.byName()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return agg[names[i]].own > agg[names[j]].own })
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total", "self")
	for _, n := range names {
		lt := agg[n]
		fmt.Fprintf(w, "%-24s %8d %12s %12s\n", n, lt.count,
			lt.total.Round(time.Microsecond), lt.own.Round(time.Microsecond))
	}
}
