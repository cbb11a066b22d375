package main

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	fademl "repro"
	"repro/internal/mathx"
	"repro/internal/nn"
)

// testRig serves an untrained tiny-profile VGG: the serving path is the
// same, and no weights need training.
func testRig(t *testing.T) *rig {
	t.Helper()
	net, err := nn.VGGNet(nn.ScaledVGGConfig(3, imgSize, fademl.NumClasses, 12), mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRig(net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	return r
}

func TestFreshRepliesMatchReference(t *testing.T) {
	r := testRig(t)
	reqs, err := r.freshRequests(newGenerator(4), streamNominal, 120, dedup{})
	if err != nil {
		t.Fatal(err)
	}
	st0 := r.srv.Stats()
	send, verify := r.exchange(reqs, nil, 0)
	p := runClosed(len(reqs), 2, send, verify)
	if p.failed != 0 || p.attempted != len(reqs) {
		t.Fatalf("%d of %d replies failed: %v", p.failed, p.attempted, p.errs)
	}
	if d := deltaStats(st0, r.srv.Stats()); d.hits != 0 || d.lookups != float64(len(reqs)) {
		t.Fatalf("fresh images hit the cache: %v hits in %v lookups", d.hits, d.lookups)
	}
	if p.cpu <= 0 || p.cpuReqs != len(reqs) {
		t.Fatalf("phase CPU time %v over %d requests, want > 0 over %d", p.cpu, p.cpuReqs, len(reqs))
	}
}

// TestQueuePercentilesNeedFullWindow: the server's queue percentiles are
// reported only for a phase that refilled the server's latency window.
func TestQueuePercentilesNeedFullWindow(t *testing.T) {
	a := fademl.ServeStats{Batches: 100, MeanBatchOccupancy: 2}
	for _, c := range []struct {
		batches uint64
		images  float64
		want    float64
	}{{10, 20, 0}, {1000, serveLatWindow - 1, 0}, {1000, serveLatWindow, 7}} {
		b := fademl.ServeStats{Batches: a.Batches + c.batches, P50LatencyMs: 7, P99LatencyMs: 9}
		b.MeanBatchOccupancy = (200 + c.images) / float64(b.Batches)
		if d := deltaStats(a, b); d.queueP50ms != c.want || (c.want != 0) != (d.queueP99ms == 9) {
			t.Errorf("%v images batched: queue p50 %v p99 %v, want p50 %v", c.images, d.queueP50ms, d.queueP99ms, c.want)
		}
	}
}

// TestHotWorkloadHitShare: after the pool is primed, at least 95% of
// predict_hot requests are answered from the cache, bit-identically.
func TestHotWorkloadHitShare(t *testing.T) {
	r := testRig(t)
	g := newGenerator(5)
	hs := r.hotSet(g)
	var pool []request
	for l := range hs {
		pool = append(pool, hs[l][:]...)
	}
	send, verify := r.exchange(pool, nil, 0)
	if p := runClosed(len(pool), 1, send, verify); p.failed != 0 {
		t.Fatalf("priming: %v", p.errs)
	}
	reqs := hotRequests(g, hs, streamNominal, 800)
	st0 := r.srv.Stats()
	send, verify = r.exchange(reqs, nil, 0)
	p := runClosed(len(reqs), 2, send, verify)
	if p.failed != 0 || p.attempted != len(reqs) {
		t.Fatalf("%d of %d replies failed: %v", p.failed, p.attempted, p.errs)
	}
	if d := deltaStats(st0, r.srv.Stats()); d.hitRatio < 0.95 {
		t.Fatalf("hit share %.3f, want ≥ 0.95", d.hitRatio)
	}
}

func TestBatchRepliesMatchReference(t *testing.T) {
	r := testRig(t)
	reqs, err := r.batchRequests(newGenerator(6), 1, 6, dedup{})
	if err != nil {
		t.Fatal(err)
	}
	for k, q := range reqs {
		if want := []fademl.Precision{fademl.PrecisionFloat64, fademl.PrecisionFloat32}[k%2]; q.lane != want {
			t.Fatalf("request %d of segment 1 on %v, want lanes alternating", k, q.lane)
		}
	}
	send, verify := r.exchange(reqs, nil, 0)
	if p := runClosed(len(reqs), 2, send, verify); p.failed != 0 {
		t.Fatalf("%d of %d replies failed: %v", p.failed, p.attempted, p.errs)
	}
}

func TestCheckReplyRejects(t *testing.T) {
	q := &request{lane: fademl.PrecisionFloat32, n: 1, want: answer{class: 3, prob: 0.25}}
	reply := func(class int, prob float64, lane string) []byte {
		return []byte(fmt.Sprintf(`{"class":%d,"prob":%v,"precision":%q}`, class, prob, lane))
	}
	if err := checkReply(http.StatusOK, reply(3, 0.25, "float32"), q); err != nil {
		t.Fatalf("a correct reply was rejected: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   []byte
	}{
		"shed":           {http.StatusTooManyRequests, []byte(`{"error":"overloaded"}`)},
		"class range":    {http.StatusOK, reply(43, 0.25, "float32")},
		"prob range":     {http.StatusOK, reply(3, 1.5, "float32")},
		"lane":           {http.StatusOK, reply(3, 0.25, "float64")},
		"wrong class":    {http.StatusOK, reply(4, 0.25, "float32")},
		"one ulp off":    {http.StatusOK, reply(3, math.Nextafter(0.25, 1), "float32")},
		"not json":       {http.StatusOK, []byte("ok")},
		"missing images": {http.StatusOK, []byte(`{"results":[]}`)},
	} {
		qq := *q
		if name == "missing images" {
			qq.batch = true
		}
		if err := checkReply(c.status, c.body, &qq); err == nil {
			t.Errorf("%s: accepted %s", name, c.body)
		}
	}
}
