package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fademl "repro"
	"repro/internal/mathx"
	"repro/internal/tensor"
)

// acqSeed is fademl-serve's default acquisition seed. The benchmark
// deploys exactly what the binary deploys; the workload seed only shapes
// the inputs.
const acqSeed = 97

// serveOptions mirrors fademl-serve's flag defaults.
func serveOptions() fademl.ServeOptions {
	cases := make([]fademl.EvalCase, len(fademl.PaperScenarios))
	for i, sc := range fademl.PaperScenarios {
		cases[i] = fademl.EvalCase{Source: sc.Source, Target: sc.Target}
	}
	return fademl.ServeOptions{
		Workers:         runtime.NumCPU(),
		MaxBatch:        16,
		MaxWait:         2 * time.Millisecond,
		DefaultTM:       fademl.TM2,
		Precision:       fademl.PrecisionFloat64,
		ClassName:       fademl.ClassName,
		AttackWorkers:   1,
		AttackBudget:    fademl.Budget{MaxQueries: 5000},
		AttackTimeout:   30 * time.Second,
		Render:          fademl.CanonicalSign,
		EvalCases:       cases,
		PredictDeadline: 500 * time.Millisecond,
		DefendDeadline:  2 * time.Second,
		EvaluateTimeout: 2 * time.Minute,
	}
}

// rig is one deployment: the tiny-profile model behind lap(np=32) and
// TM-II acquisition, served over HTTP on a loopback listener through the
// same constructors fademl-serve uses.
type rig struct {
	env    *fademl.Env // nil for a rig built around a bare network
	net    *fademl.Network
	acq    *fademl.Acquisition
	lap    fademl.Filter
	srv    *fademl.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	// refs are private pipelines, one per CPU and each on its own network
	// clone, that compute the expected answer of every checked request
	// before timing starts.
	refs  []*fademl.Pipeline
	setup setupTime
}

// setupTime is one set-up: total is constructor start → healthz 200;
// envLoad and start split it into NewEnv and NewServer + listen + first
// healthz.
type setupTime struct{ total, envLoad, start time.Duration }

func startRig(cacheDir string) (*rig, error) {
	t0 := time.Now()
	env, err := fademl.NewEnv(fademl.ProfileTiny(), cacheDir, nil)
	if err != nil {
		return nil, fmt.Errorf("load env: %w", err)
	}
	t1 := time.Now()
	r, err := newRig(env.Net)
	if err != nil {
		return nil, err
	}
	r.env = env
	r.setup = setupTime{total: time.Since(t0), envLoad: t1.Sub(t0), start: time.Since(t1)}
	return r, nil
}

// newRig serves net and returns once /v1/healthz answers 200.
func newRig(model *fademl.Network) (*rig, error) {
	r := &rig{net: model, acq: fademl.NewAcquisition(1, 1.0/255, true, acqSeed), lap: fademl.NewLAP(32), served: make(chan error, 1)}
	r.srv = fademl.NewServer(fademl.NewPipeline(model, r.lap, r.acq), serveOptions())
	if !r.srv.Float32Available() {
		r.srv.Close()
		return nil, errors.New("float32 lane unavailable")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.base = "http://" + ln.Addr().String()
	r.hs = fademl.NewHTTPServer(ln.Addr().String(), r.srv.Handler(), fademl.HTTPTimeouts{Write: 5 * time.Minute})
	go func() { r.served <- r.hs.Serve(ln) }()
	r.client = newClient(runtime.NumCPU())
	if err := r.waitHealthy(10 * time.Second); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := r.client.Get(r.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v (last error %v)", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the listener, waits for Serve to return and shuts the
// batching service down.
func (r *rig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.hs.Shutdown(ctx) // a timeout here leaves nothing to clean up: Close follows
	_ = r.hs.Close()
	<-r.served
	r.srv.Close()
	r.client.CloseIdleConnections()
}

// startRigs sets up reps times and returns the last rig, still running,
// with the set-up times of every repetition.
func startRigs(cacheDir string, reps int) (*rig, []setupTime, error) {
	var times []setupTime
	for i := 0; ; i++ {
		r, err := startRig(cacheDir)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, r.setup)
		logf("  setup %d: %.3fs (env %.3fs, start %.3fs)", i, r.setup.total.Seconds(), r.setup.envLoad.Seconds(), r.setup.start.Seconds())
		if i == reps-1 {
			return r, times, nil
		}
		r.close()
		runtime.GC()
	}
}

// answer is the expected reply for one image.
type answer struct {
	class int
	prob  float64
}

// references computes the expected answer for each image on its lane.
func (r *rig) references(pxs [][]float64, lanes []fademl.Precision) []answer {
	for len(r.refs) < runtime.NumCPU() {
		p := fademl.NewPipeline(r.net.Clone(), r.lap, r.acq)
		if err := p.EnableFloat32(); err != nil {
			panic(err) // newRig already required the float32 lane
		}
		r.refs = append(r.refs, p)
	}
	out := make([]answer, len(pxs))
	parallelFor(len(pxs), func(worker, i int) {
		t := tensor.FromSlice(pxs[i], 3, imgSize, imgSize)
		var probs []float64
		if lanes[i] == fademl.PrecisionFloat32 {
			probs = r.refs[worker].Probs32(t, fademl.TM2)
		} else {
			probs = r.refs[worker].Probs(t, fademl.TM2)
		}
		c := mathx.ArgMax(probs)
		out[i] = answer{class: c, prob: probs[c]}
	})
	return out
}

func (r *rig) reference(px []float64, lane fademl.Precision) answer {
	return r.references([][]float64{px}, []fademl.Precision{lane})[0]
}

// parallelFor runs fn(worker, i) for every i in [0, n) on one goroutine
// per CPU and returns when all are done.
func parallelFor(n int, fn func(worker, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// request is one prepared request with its expected answer.
type request struct {
	body  []byte
	lane  fademl.Precision
	batch bool
	n     int // images in the request
	check int // index of the image compared with want
	want  answer
}

type wirePrediction struct {
	Class     int     `json:"class"`
	Prob      float64 `json:"prob"`
	Precision string  `json:"precision"`
}

// checkReply accepts only a 200 whose every prediction has a class in
// range, a finite probability in [0, 1] and the requested lane, and whose
// checked prediction equals the reference bit for bit.
func checkReply(status int, body []byte, q *request) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var preds []wirePrediction
	if q.batch {
		var b struct {
			Results []wirePrediction `json:"results"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
		preds = b.Results
	} else {
		var p wirePrediction
		if err := json.Unmarshal(body, &p); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
		preds = []wirePrediction{p}
	}
	if len(preds) != q.n {
		return fmt.Errorf("%d predictions for %d images", len(preds), q.n)
	}
	for i, p := range preds {
		if p.Class < 0 || p.Class >= fademl.NumClasses || !(p.Prob >= 0 && p.Prob <= 1) {
			return fmt.Errorf("prediction %d out of domain: class %d prob %v", i, p.Class, p.Prob)
		}
		if p.Precision != q.lane.String() {
			return fmt.Errorf("prediction %d on lane %q, requested %q", i, p.Precision, q.lane)
		}
	}
	got := preds[q.check]
	if got.Class != q.want.class || math.Float64bits(got.Prob) != math.Float64bits(q.want.prob) {
		return fmt.Errorf("prediction %d: class %d prob %v, reference class %d prob %v",
			q.check, got.Class, got.Prob, q.want.class, q.want.prob)
	}
	return nil
}

func (r *rig) url(q *request) string {
	if q.batch {
		return r.base + "/v1/predict_batch"
	}
	return r.base + "/v1/predict"
}

// exchange returns send, which posts reqs[i] and keeps the reply, and
// verify, which checks that reply once the phase is over. With a
// recorder, both are spans whose trace id is base+i.
func (r *rig) exchange(reqs []request, rec *recorder, base int) (send, verify doer) {
	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, len(reqs))
	send = func(i int) error {
		id := rec.begin("http.roundtrip", 0, base+i)
		status, body, err := post(r.client, r.url(&reqs[i]), reqs[i].body)
		rec.end(id)
		replies[i] = reply{status, body}
		return err
	}
	verify = func(i int) error {
		id := rec.begin("check.reply", 0, base+i)
		defer rec.end(id)
		return checkReply(replies[i].status, replies[i].body, &reqs[i])
	}
	return send, verify
}

// freshRequests builds n single-image requests from a stream, each image
// new to the run, each lane drawn 50/50.
func (r *rig) freshRequests(g *generator, stream uint64, n int, seen dedup) ([]request, error) {
	pxs := make([][]float64, n)
	lanes := make([]fademl.Precision, n)
	for i := range pxs {
		pxs[i], lanes[i] = g.image(stream, uint64(i)), g.lane(stream, uint64(i))
		if !seen.add(pxs[i]) {
			return nil, fmt.Errorf("generator repeated an image (stream %d, index %d)", stream, i)
		}
	}
	want := r.references(pxs, lanes)
	reqs := make([]request, n)
	parallelFor(n, func(_, i int) {
		reqs[i] = request{body: predictBody(pxs[i], lanes[i]), lane: lanes[i], n: 1, want: want[i]}
	})
	return reqs, nil
}

// hotSet is the predict_hot working set: every pool image on each lane.
type hotSet [2][hotPool]request

func (r *rig) hotSet(g *generator) *hotSet {
	var hs hotSet
	lanes := []fademl.Precision{fademl.PrecisionFloat64, fademl.PrecisionFloat32}
	for k := 0; k < hotPool; k++ {
		px := g.image(streamPool, uint64(k))
		want := r.references([][]float64{px, px}, lanes)
		for l, lane := range lanes {
			hs[l][k] = request{body: predictBody(px, lane), lane: lane, n: 1, want: want[l]}
		}
	}
	return &hs
}

// hotRequests draws n requests from the pool with skew; lanes 50/50.
func hotRequests(g *generator, hs *hotSet, stream uint64, n int) []request {
	reqs := make([]request, n)
	for i, k := range g.hotDraws(stream, n) {
		l := 0
		if g.lane(stream, uint64(i)) == fademl.PrecisionFloat32 {
			l = 1
		}
		reqs[i] = hs[l][k]
	}
	return reqs
}

// batchSize is the predict_batch request size: the serving MaxBatch, so
// the coalescing queue flushes on full.
const batchSize = 16

// batchRequests builds n predict_batch requests of batchSize new images
// for one segment. Lanes alternate per request; one seeded image per
// request is checked against the reference.
func (r *rig) batchRequests(g *generator, segment uint64, n int, seen dedup) ([]request, error) {
	stream := streamBatch + segment
	pxs := make([][][]float64, n)
	checked := make([][]float64, n)
	lanes := make([]fademl.Precision, n)
	checks := make([]int, n)
	for k := range pxs {
		pxs[k] = make([][]float64, batchSize)
		for j := range pxs[k] {
			pxs[k][j] = g.image(stream, uint64(k*batchSize+j))
			if !seen.add(pxs[k][j]) {
				return nil, fmt.Errorf("generator repeated an image (segment %d, request %d)", segment, k)
			}
		}
		lanes[k] = fademl.PrecisionFloat64
		if (int(segment)*n+k)%2 == 1 {
			lanes[k] = fademl.PrecisionFloat32
		}
		checks[k] = g.checkIndex(stream, uint64(k), batchSize)
		checked[k] = pxs[k][checks[k]]
	}
	want := r.references(checked, lanes)
	reqs := make([]request, n)
	parallelFor(n, func(_, k int) {
		reqs[k] = request{body: batchBody(pxs[k], lanes[k]), lane: lanes[k], batch: true, n: batchSize, check: checks[k], want: want[k]}
	})
	return reqs, nil
}

// serveDelta is the change in the server's counters over one phase.
type serveDelta struct {
	hitRatio, occupancy    float64
	batches, shed          float64
	queueP50ms, queueP99ms float64
	hits, lookups          float64
}

// serveLatWindow is the size of the server's sliding window of
// enqueue-to-reply latencies behind ServeStats.P50LatencyMs/P99LatencyMs.
// The window holds one entry per batched image.
const serveLatWindow = 2048

// deltaStats is the change from a to b. The server's queue percentiles
// cover its last serveLatWindow batched images, not a phase, so they are
// reported only when the phase batched at least that many images (0
// otherwise: a phase of cache hits batches none).
func deltaStats(a, b fademl.ServeStats) serveDelta {
	d := serveDelta{
		batches: float64(b.Batches - a.Batches),
		shed:    float64(b.Interactive.Shed - a.Interactive.Shed),
		hits:    float64(b.Cache.Hits - a.Cache.Hits),
	}
	d.lookups = d.hits + float64(b.Cache.Misses-a.Cache.Misses)
	if d.lookups > 0 {
		d.hitRatio = d.hits / d.lookups
	}
	if d.batches > 0 {
		imgs := b.MeanBatchOccupancy*float64(b.Batches) - a.MeanBatchOccupancy*float64(a.Batches)
		d.occupancy = imgs / d.batches
		if math.Round(imgs) >= serveLatWindow {
			d.queueP50ms, d.queueP99ms = b.P50LatencyMs, b.P99LatencyMs
		}
	}
	return d
}
