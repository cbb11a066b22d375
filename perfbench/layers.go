package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"

	fademl "repro"
	"repro/internal/attacks"
	"repro/internal/filters"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The layer probes time calls into each module's public functions from
// outside, on the workload's own inputs, and record them as spans. Every
// per-layer metric is the median of its spans.
const (
	probeSingles = 32 // inputs per single-image probe
	probeBatches = 8  // batches of batchSize per batched probe
	probeReps    = 16 // repetitions of input-independent probes
)

// fig9Filters is the Fig. 9 filter grid (metric name → spec).
var fig9Filters = []struct{ name, spec string }{
	{"lap4", "lap(np=4)"}, {"lap8", "lap(np=8)"}, {"lap16", "lap(np=16)"}, {"lap32", "lap(np=32)"}, {"lap64", "lap(np=64)"},
	{"lar1", "lar(r=1)"}, {"lar2", "lar(r=2)"}, {"lar3", "lar(r=3)"}, {"lar4", "lar(r=4)"}, {"lar5", "lar(r=5)"},
}

// probeInput is one input of the workload's kind: a single image, or a
// batchSize batch for batch_fresh.
type probeInput struct {
	pxs  [][]float64
	lane fademl.Precision
}

// prober times the layers below the HTTP surface.
type prober struct {
	r    *rig
	rec  *recorder
	res  *result
	next func() probeInput
	net  *nn.Network // private clone: probes never touch the server's networks
	n32  *fademl.Net32
	pipe *fademl.Pipeline
	// flops is each conv's batched GEMM work, 2·m·n·k·batchSize, from
	// the shapes the probe ran.
	flops map[string]float64
}

func (p *prober) fail(err error) {
	p.res.attempted++
	p.res.failed++
	p.res.note(err.Error())
}

func (p *prober) ok() { p.res.attempted++ }

// request builds the input's request; its first image is checked.
func (p *prober) request(in probeInput) request {
	q := request{lane: in.lane, n: len(in.pxs), batch: len(in.pxs) > 1, want: p.r.reference(in.pxs[0], in.lane)}
	if q.batch {
		q.body = batchBody(in.pxs, in.lane)
	} else {
		q.body = predictBody(in.pxs[0], in.lane)
	}
	return q
}

func tensors(pxs [][]float64) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, len(pxs))
	for i, px := range pxs {
		ts[i] = tensor.FromSlice(px, 3, imgSize, imgSize)
	}
	return ts
}

// serving times one input three ways, on three distinct inputs so a
// fresh workload never answers a probe from the result cache: the HTTP
// round trip, the handler on an in-memory recorder, and the in-process
// Predict call.
func (p *prober) serving(trace int, h http.Handler) {
	root := p.rec.begin("probe.serve", 0, trace)
	defer p.rec.end(root)

	q := p.request(p.next())
	var status int
	var body []byte
	var err error
	p.rec.timed("http.roundtrip", root, trace, func() { status, body, err = post(p.r.client, p.r.url(&q), q.body) })
	if err == nil {
		err = checkReply(status, body, &q)
	}
	p.check(err)

	q = p.request(p.next())
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, p.r.url(&q), bytes.NewReader(q.body))
	p.rec.timed("serve.handler", root, trace, func() { h.ServeHTTP(w, req) })
	p.check(checkReply(w.Code, w.Body.Bytes(), &q))

	in := p.next()
	want := p.r.reference(in.pxs[0], in.lane)
	ctx := context.Background()
	var class int
	var prob float64
	p.rec.timed("serve.predict", root, trace, func() {
		if len(in.pxs) > 1 {
			var preds []fademl.Prediction
			if preds, err = p.r.srv.PredictBatchPrec(ctx, tensors(in.pxs), fademl.TM2, in.lane); err == nil {
				class, prob = preds[0].Class, preds[0].Prob
			}
			return
		}
		var pred fademl.Prediction
		if pred, err = p.r.srv.PredictPrec(ctx, tensors(in.pxs)[0], fademl.TM2, in.lane); err == nil {
			class, prob = pred.Class, pred.Prob
		}
	})
	if err == nil && (class != want.class || prob != want.prob) {
		err = fmt.Errorf("in-process predict: class %d prob %v, reference class %d prob %v", class, prob, want.class, want.prob)
	}
	p.check(err)
}

func (p *prober) check(err error) {
	if err != nil {
		p.fail(fmt.Errorf("probe: %w", err))
		return
	}
	p.ok()
}

// single times the delivery stages and the forward pass on one image.
func (p *prober) single(trace int, px []float64) {
	root := p.rec.begin("probe.single", 0, trace)
	defer p.rec.end(root)
	x := tensor.FromSlice(px, 3, imgSize, imgSize)
	var acquired, filtered, delivered *tensor.Tensor
	p.rec.timed("pipeline.acquire", root, trace, func() { acquired = p.r.acq.Apply(x) })
	p.rec.timed("filters.lap32", root, trace, func() { filtered = p.r.lap.Apply(acquired) })
	p.rec.timed("pipeline.deliver", root, trace, func() { delivered = p.pipe.Deliver(x, fademl.TM2) })
	if !equalData(filtered, delivered) {
		p.fail(fmt.Errorf("probe: Deliver differs from Acquisition.Apply then Filter.Apply"))
	}
	p.rec.timed("nn.probs_f64", root, trace, func() { _ = p.net.Probs(delivered) })
	p.rec.timed("nn.probs_f32", root, trace, func() { _ = p.n32.Probs(delivered) })
	p.layers(root, trace, tensor.FromSlice(append([]float64(nil), delivered.Data()...), 1, 3, imgSize, imgSize), "", nil)
}

// batch times the batched delivery stages, the batched forward, and each
// convolution's GEMM at its im2col shape.
func (p *prober) batch(trace int, pxs [][]float64, rng *rand.Rand) {
	root := p.rec.begin("probe.batch", 0, trace)
	defer p.rec.end(root)
	xs := tensors(pxs)
	var acquired, delivered []*tensor.Tensor
	acquired = p.r.acq.ApplyBatch(xs)
	p.rec.timed("filters.lap32_b16", root, trace, func() { _ = p.r.lap.ApplyBatch(acquired) })
	p.rec.timed("pipeline.deliver_b16", root, trace, func() { delivered = p.pipe.DeliverBatch(xs, fademl.TM2) })
	p.rec.timed("nn.probs_f64_b16", root, trace, func() { _ = p.net.ProbsBatch(delivered) })
	p.rec.timed("nn.probs_f32_b16", root, trace, func() { _ = p.n32.ProbsBatch(delivered) })
	stacked := tensor.New(len(delivered), 3, imgSize, imgSize)
	for i, d := range delivered {
		copy(stacked.Data()[i*d.Len():], d.Data())
	}
	p.layers(root, trace, stacked, "_b16", rng)
}

// layers runs the network's layers one by one. With rng set, each
// convolution's GEMM is also timed alone at the shape its forward uses,
// batchSize times over, in both precisions.
func (p *prober) layers(parent, trace int, x *tensor.Tensor, suffix string, rng *rand.Rand) {
	fwd := p.rec.begin("nn.forward"+suffix, parent, trace)
	for _, l := range p.net.Layers() {
		if c, ok := l.(*nn.Conv2D); ok && rng != nil {
			p.gemm(fwd, trace, c, x.Dim(2), x.Dim(3), rng)
		}
		id := p.rec.begin("nn."+l.Name()+".fwd"+suffix, fwd, trace)
		x = l.Forward(x, false)
		p.rec.end(id)
	}
	p.rec.end(fwd)
}

func (p *prober) gemm(parent, trace int, c *nn.Conv2D, h, w int, rng *rand.Rand) {
	patch := c.InC * c.K * c.K
	spatial := ((h+2*c.Pad-c.K)/c.Stride + 1) * ((w+2*c.Pad-c.K)/c.Stride + 1)
	cols, y := tensor.New(patch, spatial), tensor.New(c.OutC, spatial)
	for i := range cols.Data() {
		cols.Data()[i] = rng.Float64()
	}
	w32, cols32, y32 := tensor.New32(c.OutC, patch), tensor.New32(patch, spatial), tensor.New32(c.OutC, spatial)
	w32.CopyFrom64(c.W.Value)
	cols32.CopyFrom64(cols)
	p.flops[c.Name()] = 2 * float64(c.OutC) * float64(patch) * float64(spatial) * batchSize
	p.rec.timed("tensor."+c.Name()+".gemm_b16", parent, trace, func() {
		for range batchSize {
			tensor.MatMulInto(y, c.W.Value, cols)
		}
	})
	p.rec.timed("tensor."+c.Name()+".gemm32_b16", parent, trace, func() {
		for range batchSize {
			tensor.MatMul32Into(y32, w32, cols32)
		}
	})
}

func equalData(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	if len(ad) != len(bd) {
		return false
	}
	for i := range ad {
		if ad[i] != bd[i] {
			return false
		}
	}
	return true
}

// attack is one crafting configuration of the paper tables.
type attack struct {
	name string
	atk  attacks.Attack
}

// paperAttacks are the Fig. 7 (filter-blind) and Fig. 9 (FAdeML through
// lap(np=8)) configurations of the experiments package.
func paperAttacks() []attack {
	lap8 := filters.NewLAP(8)
	return []attack{
		{"fgsm", &attacks.FGSM{Epsilon: 0.05}},
		{"bim", &attacks.BIM{Epsilon: 0.10, Alpha: 0.008, Steps: 40, EarlyStop: true}},
		{"lbfgs", &attacks.LBFGS{InitialC: 10, CSteps: 5, MaxIter: 30}},
		{"fademl_fgsm", attacks.NewFAdeML(&attacks.FGSM{Epsilon: 0.25}, lap8)},
		{"fademl_bim", attacks.NewFAdeML(&attacks.BIM{Epsilon: 0.25, Alpha: 0.02, Steps: 60, EarlyStop: true}, lap8)},
		{"fademl_lbfgs", attacks.NewFAdeML(&attacks.LBFGS{InitialC: 5, CSteps: 6, MaxIter: 50}, lap8)},
	}
}

// countingClassifier counts every classifier evaluation an attack makes.
type countingClassifier struct {
	inner attacks.NetClassifier
	n     int
}

func (c *countingClassifier) NumClasses() int { return c.inner.NumClasses() }

func (c *countingClassifier) Logits(x *tensor.Tensor) []float64 {
	c.n++
	return c.inner.Logits(x)
}

func (c *countingClassifier) LogitsBatch(xs []*tensor.Tensor) [][]float64 {
	c.n += len(xs)
	return c.inner.LogitsBatch(xs)
}

func (c *countingClassifier) GradFromLogits(x *tensor.Tensor, dfn func([]float64) []float64) ([]float64, *tensor.Tensor) {
	c.n++
	return c.inner.GradFromLogits(x, dfn)
}

// research times the paper path's layers: filter VJPs over the Fig. 9
// grid, the input gradient and one craft per paper attack.
func (p *prober) research(trace int, px []float64, rng *rand.Rand) map[string]float64 {
	root := p.rec.begin("probe.research", 0, trace)
	defer p.rec.end(root)
	x := tensor.FromSlice(px, 3, imgSize, imgSize)
	up := tensor.New(3, imgSize, imgSize)
	for i := range up.Data() {
		up.Data()[i] = rng.NormFloat64()
	}
	for _, f := range fig9Filters {
		flt, err := filters.Parse(f.spec)
		if err != nil {
			p.fail(err)
			continue
		}
		for range probeReps {
			p.rec.timed("filters.vjp."+f.name, root, trace, func() { _ = flt.VJP(x, up) })
		}
	}
	sc := fademl.PaperScenarios[0]
	for range probeReps {
		p.rec.timed("nn.input_grad", root, trace, func() { _, _ = p.net.LossAndInputGrad(x, sc.Source, nn.CrossEntropy{}) })
	}
	queries := map[string]float64{}
	clean := sc.CleanImage(imgSize)
	for _, a := range paperAttacks() {
		cc := &countingClassifier{inner: attacks.NetClassifier{Net: p.net}}
		var err error
		p.rec.timed("attacks."+a.name+".craft", root, trace, func() {
			_, err = a.atk.Generate(context.Background(), cc, clean, attacks.Goal{Source: sc.Source, Target: sc.Target})
		})
		if err != nil {
			p.fail(fmt.Errorf("craft %s: %w", a.name, err))
			continue
		}
		p.ok()
		queries[a.name] = float64(cc.n)
	}
	return queries
}

// probeLayers runs every probe and appends the per-layer metrics.
func probeLayers(r *rig, rec *recorder, res *result, g *generator, next func() probeInput, setups []setupTime) error {
	net := r.net.Clone()
	p := &prober{r: r, rec: rec, res: res, next: next, net: net, pipe: fademl.NewPipeline(net, r.lap, r.acq), flops: map[string]float64{}}
	for range 5 {
		var err error
		rec.timed("nn.to_float32", 0, 0, func() { p.n32, err = net.ToFloat32() })
		if err != nil {
			return fmt.Errorf("float32 snapshot: %w", err)
		}
	}
	rng := rand.New(rand.NewPCG(g.seed, 0x9e37))
	h := r.srv.Handler()
	for i := range probeSingles {
		p.serving(i, h)
	}
	for i := range probeSingles {
		p.single(i, g.image(streamProbe, uint64(1<<16+i)))
	}
	for b := range probeBatches {
		pxs := make([][]float64, batchSize)
		for j := range pxs {
			pxs[j] = g.image(streamProbe, uint64(1<<17+b*batchSize+j))
		}
		p.batch(b, pxs, rng)
	}
	queries := p.research(0, g.image(streamProbe, 1<<18), rng)

	spans := rec.snapshot()
	med := func(name string) float64 { return medianUs(spans, name) }
	handler, predict := med("serve.handler"), med("serve.predict")
	res.add("serve.handler_us", handler, "us")
	res.add("serve.predict_us", predict, "us")
	res.add("serve.codec_us", handler-predict, "us")
	res.add("serve.transport_us", med("http.roundtrip")-handler, "us")
	for _, n := range []string{"pipeline.acquire", "pipeline.deliver", "pipeline.deliver_b16", "filters.lap32", "filters.lap32_b16",
		"nn.probs_f64", "nn.probs_f32", "nn.probs_f64_b16", "nn.probs_f32_b16"} {
		res.add(n+"_us", med(n), "us")
	}
	for _, l := range net.Layers() {
		res.add("nn."+l.Name()+".fwd_us", med("nn."+l.Name()+".fwd"), "us")
		res.add("nn."+l.Name()+".fwd_b16_us", med("nn."+l.Name()+".fwd_b16"), "us")
	}
	for _, l := range net.Layers() {
		c, ok := l.(*nn.Conv2D)
		if !ok {
			continue
		}
		g64 := med("tensor." + c.Name() + ".gemm_b16")
		res.add("tensor."+c.Name()+".gemm_b16_us", g64, "us")
		res.add("tensor."+c.Name()+".gemm32_b16_us", med("tensor."+c.Name()+".gemm32_b16"), "us")
		res.add("tensor."+c.Name()+".gemm_gflops", p.flops[c.Name()]/(g64*1e3), "GFLOP/s")
	}
	for _, f := range fig9Filters {
		res.add("filters.vjp."+f.name+"_us", med("filters.vjp."+f.name), "us")
	}
	res.add("nn.input_grad_us", med("nn.input_grad"), "us")
	for _, a := range paperAttacks() {
		res.add("attacks."+a.name+".craft_ms", med("attacks."+a.name+".craft")/1e3, "ms")
		res.add("attacks."+a.name+".queries", queries[a.name], "count")
	}
	var envLoad, start []float64
	for _, s := range setups {
		envLoad = append(envLoad, s.envLoad.Seconds())
		start = append(start, ms(s.start))
	}
	res.add("experiments.env_load_s", median(envLoad), "s")
	res.add("nn.to_float32_ms", med("nn.to_float32")/1e3, "ms")
	res.add("serve.start_ms", median(start), "ms")
	return nil
}
