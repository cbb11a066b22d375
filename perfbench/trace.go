package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// input share a trace id (the input's index in its phase); Parent is 0
// for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id (0 when r is nil).
func (r *recorder) begin(name string, parent, trace int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-measured interval, for layers timed by their
// own clock (the load generator's due times).
func (r *recorder) add(name string, parent, trace int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return len(r.spans)
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent, trace int, fn func()) {
	id := r.begin(name, parent, trace)
	fn()
	r.end(id)
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may nest, overlap
// each other (concurrent calls) or spill past the parent; only the union
// of their intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within
// [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50us  float64 `json:"p50_us"`
	Self50 float64 `json:"self_p50_us"`
	SelfUs float64 `json:"self_total_us"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], us(s.dur()))
		selfs[s.Name] = append(selfs[s.Name], us(self[s.ID]))
	}
	out := make([]spanSummary, 0, len(durs))
	for name, d := range durs {
		var tot float64
		for _, v := range selfs[name] {
			tot += v
		}
		out = append(out, spanSummary{Name: name, Count: len(d), P50us: median(d), Self50: median(selfs[name]), SelfUs: tot})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfUs > out[j].SelfUs })
	return out
}

// medianUs is the median duration, in microseconds, of the spans named
// name.
func medianUs(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, us(s.dur()))
		}
	}
	return median(d)
}

// writeSpans writes every span (with its self time) as JSON lines, then
// the per-name summary, to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			SelfNs time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range summarize(spans) {
		if err := enc.Encode(struct {
			Summary spanSummary `json:"summary"`
		}{s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
