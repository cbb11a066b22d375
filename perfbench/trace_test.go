package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

// TestSelfTimeNestedAndOverlapping: a root [0,100] with children [10,40]
// and [30,60] (overlapping each other) and [90,120] (spilling past the
// root); the first child has its own child [15,20].
func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 40),
		sp(3, 1, 30, 60),
		sp(4, 1, 90, 120),
		sp(5, 2, 15, 20),
		sp(6, 0, 200, 250),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (50 + 10), // children cover [10,60] and [90,100]
		2: 30 - 5,          // the grandchild counts against its parent only
		3: 30,
		4: 30,
		5: 5,
		6: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeDisjointAndContainedChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 0, 10),
		sp(3, 1, 20, 30),
		sp(4, 1, 22, 25), // contained in span 3's interval, same parent
		sp(5, 1, 100, 150),
	}
	if got := selfTimes(spans)[1]; got != 80 {
		t.Fatalf("self %v, want 80", got)
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 1)
	r.end(id)
	r.timed("y", 0, 1, func() {})
	r.add("z", 0, 1, time.Now(), time.Now())
	if id != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder recorded spans")
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	r := newRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				root := r.begin("root", 0, i)
				r.timed("child", root, i, func() {})
				r.end(root)
			}
		}()
	}
	wg.Wait()
	spans := r.snapshot()
	if len(spans) != 1600 {
		t.Fatalf("%d spans, want 1600", len(spans))
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name != "child" {
			continue
		}
		p := byID[s.Parent]
		if p.Name != "root" || p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			t.Fatalf("child %+v not inside its root %+v", s, p)
		}
	}
}

func TestTraceOverhead(t *testing.T) {
	untraced := &phase{lat: []float64{1, 2, 3, 4, 5}}
	traced := &phase{lat: []float64{1.5, 2.5, 3.3, 4.5, 5.5}}
	over, pct := traceOverhead(untraced, traced)
	if math.Abs(over-0.3) > 1e-12 || math.Abs(pct-10) > 1e-9 {
		t.Fatalf("overhead %v ms %v%%, want 0.3 ms 10%%", over, pct)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4, 6, 8}, 2.5, 7.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
