package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req; a
// span caused by another records it as Parent (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps the spans of a traced run in memory; they are written out
// once the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children started before the span ends can
// name it as their parent.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// record stores a finished span.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: t.since(start), End: t.since(end)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans with the given name, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// reset drops every span recorded so far (warm-up and set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, for every span named parent, its duration minus the
// part of its interval covered by its children named child.
func (t *tracer) selfTimes(parent, child string) []float64 {
	kids := make(map[int64][]span)
	for _, c := range t.named(child) {
		kids[c.Parent] = append(kids[c.Parent], c)
	}
	var out []float64
	for _, p := range t.named(parent) {
		out = append(out, float64(p.End-p.Start-covered(p, kids[p.ID]))/1e6)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval. children must be in start order.
func covered(p span, children []span) int64 {
	var total, reach int64 = 0, p.Start
	for _, c := range children {
		lo, hi := max(c.Start, reach), min(c.End, p.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanFile names a run's span file.
func spanFile(workload string, seed int64) string {
	return fmt.Sprintf("%s-seed%d.jsonl", workload, seed)
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks), 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer the workload never loaded).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
