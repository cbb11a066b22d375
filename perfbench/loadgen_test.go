package main

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallFromDueTime: one stalled request delays the
// requests queued behind it, and their latency counts from when they
// were due, not from when they were sent.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	p := runOpen(1000, 100, 1, func(i int) error {
		if i == 10 {
			time.Sleep(stall)
		}
		return nil
	}, nil)
	if p.failed != 0 || p.attempted != 100 {
		t.Fatalf("attempted %d failed %d", p.attempted, p.failed)
	}
	// Request 11 was due 1 ms after request 10 and could only go out once
	// the stall ended.
	if p.lat[11] < 45 {
		t.Fatalf("request 11 latency %.2f ms, want ≥ 45 ms charged from its due time", p.lat[11])
	}
	if p.lag[11] < 45 {
		t.Fatalf("request 11 lag %.2f ms, want ≥ 45 ms", p.lag[11])
	}
	if service := ms(p.done[11].Sub(p.sent[11])); service > 10 {
		t.Fatalf("request 11 service time %.2f ms; the stall belongs to its wait", service)
	}
	if p.lat[5] > 10 {
		t.Fatalf("request 5 (before the stall) latency %.2f ms", p.lat[5])
	}
}

func TestGrowingBacklogIsInvalid(t *testing.T) {
	slow := func(int) error { time.Sleep(2 * time.Millisecond); return nil }
	// 1000/s offered to one connection that serves at most 500/s.
	p := runOpen(1000, 400, 1, slow, nil)
	if !p.growing {
		t.Fatalf("offered twice the capacity but the backlog was not marked growing (lag p99 %.1f ms)", percentile(p.lag, 99))
	}
	if p.aborted && p.attempted >= 400 {
		t.Fatal("an aborted phase kept requests it never sent")
	}
	// 100/s is well within capacity.
	if p := runOpen(100, 100, 1, slow, nil); p.growing {
		t.Fatalf("a phase within capacity was marked growing (lag p99 %.1f ms)", percentile(p.lag, 99))
	}
	r := newResult()
	r.attempted = 10
	r.invalid("backlog grew")
	if r.correct() {
		t.Fatal("an invalid run reported itself correct")
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	verify := func(i int) error {
		if i%5 == 0 {
			return errors.New("wrong answer")
		}
		return nil
	}
	p := runClosed(20, 2, func(int) error { return nil }, verify)
	if p.failed != 4 || len(p.errs) != 4 {
		t.Fatalf("failed %d (errs %d), want 4", p.failed, len(p.errs))
	}
	if lat := percentile(p.lat, 99); lat <= p99Limit {
		t.Fatalf("p99 %.2f with failures, want +Inf", lat)
	}
}

// TestConnectionsNeverExceedNproc asks for far more connections than
// CPUs; the server must never see more open connections, nor more
// requests in flight, than there are CPUs.
func TestConnectionsNeverExceedNproc(t *testing.T) {
	var mu sync.Mutex
	open, maxOpen, inflight, maxInflight := 0, 0, 0, 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		inflight++
		maxInflight = max(maxInflight, inflight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			open++
			maxOpen = max(maxOpen, open)
		case http.StateClosed, http.StateHijacked:
			open--
		}
	}
	srv.Start()
	defer srv.Close()
	c := newClient(64)
	defer c.CloseIdleConnections()
	do := func(int) error {
		status, _, err := post(c, srv.URL, []byte("{}"))
		if err == nil && status != http.StatusOK {
			err = errors.New(http.StatusText(status))
		}
		return err
	}
	if p := runOpen(3000, 600, 64, do, nil); p.failed != 0 {
		t.Fatalf("open loop: %v", p.errs)
	}
	if p := runClosed(300, 64, do, nil); p.failed != 0 {
		t.Fatalf("closed loop: %v", p.errs)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := runtime.NumCPU(); maxOpen > n || maxInflight > n {
		t.Fatalf("server saw %d connections and %d requests in flight with %d CPUs", maxOpen, maxInflight, n)
	}
}
