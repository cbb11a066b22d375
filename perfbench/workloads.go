package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	fademl "repro"
)

// Workload constants. The nominal open-loop rates sit at 40% (fresh) and
// a quarter (hot) of the capacity measured on a 2-core host, whose speed
// halves at times; the ladders run in 3% steps from
// well below that capacity to well above it, so a faster program still
// finds its limit on the same ladder.
const (
	// setupReps set-ups per run, half before the workload and half after
	// it: the host's speed drifts over tens of seconds, and set-ups at
	// both ends of a run sample more of it. setup_s is their median.
	setupReps = 16
	p99Limit  = 20.0 // ms, the latency limit that defines max_rps
	// settle is the start of every open-loop phase that the metrics
	// ignore: the system moves to a new rate, the GC pacer adapts.
	settle = 0.5 // seconds
	// window is the length of one window of the fixed-rate phase: at
	// least 225 requests at the nominal rates, so 22 lie beyond its p90.
	window = 1.5 // seconds
	// nominalShare and rungShare split --seconds between the fixed-rate
	// phase and each ladder probe (a search takes 6 to 10 probes).
	nominalShare = 0.5
	rungShare    = 0.06
	// batchSegment is how many predict_batch requests are built (untimed)
	// and then sent as one timed closed-loop segment; it bounds memory.
	batchSegment = 48
)

type ladder struct {
	base, ratio float64
	rungs       int
}

func (l ladder) rate(k int) float64 { return l.base * math.Pow(l.ratio, float64(k)) }

var openLoads = map[string]struct {
	nominal float64
	ladder  ladder
}{
	"predict_fresh": {nominal: 150, ladder: ladder{base: 150, ratio: 1.03, rungs: 48}},
	"predict_hot":   {nominal: 500, ladder: ladder{base: 700, ratio: 1.03, rungs: 64}},
}

// workloadNames lists every workload in the order "all" runs them.
var workloadNames = []string{"predict_fresh", "predict_hot", "batch_fresh", "paper_tables"}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir holds the weight cache and span output.
	dir string
}

func (o options) cacheDir() string { return filepath.Join(o.dir, "weights") }

// primeCache loads the tiny profile once, training it into the weight
// cache on the first run in a checkout. It runs as its own process
// (`perfbench prime`, which run.sh calls before every run), so the
// training's memory never reaches a measured process's peak RSS.
func primeCache(dir string) error {
	_, err := fademl.NewEnv(fademl.ProfileTiny(), options{dir: dir}.cacheDir(), os.Stderr)
	return err
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// servingRun is one run of a serving workload.
type servingRun struct {
	opt    options
	r      *rig
	setups []setupTime
	g      *generator
	res    *result
	seen   dedup
	hs     *hotSet
}

func runServing(o options) (*result, error) {
	r, setups, err := startRigs(o.cacheDir(), setupReps/2)
	if err != nil {
		return nil, err
	}
	defer r.close()
	w := &servingRun{opt: o, r: r, setups: setups, g: newGenerator(o.seed), res: newResult(), seen: dedup{}}
	if o.workload == "predict_hot" {
		w.hs = r.hotSet(w.g)
		// Warm the cache: every pool image once on each lane.
		var pool []request
		for l := range w.hs {
			pool = append(pool, w.hs[l][:]...)
		}
		send, verify := r.exchange(pool, nil, 0)
		w.absorb("prime", runClosed(len(pool), 1, send, verify))
	}
	if o.trace {
		return w.res, w.traced()
	}
	if load, open := openLoads[o.workload]; open {
		wins, err := w.fixedRate(load.nominal, nominalShare*o.seconds)
		if err != nil {
			return nil, err
		}
		var p50, p90, cpu []float64
		all := &phase{}
		for _, p := range wins {
			p50 = append(p50, percentile(p.lat, 50))
			p90 = append(p90, percentile(p.lat, 90))
			cpu = append(cpu, us(p.cpu)/float64(p.cpuReqs))
			all.pool(p)
		}
		all.growing = all.aborted || backlogGrew(all.lag)
		w.res.add("p50_ms", median(p50), "ms")
		// The tail is printed, not gated: on a shared host it follows how
		// busy the host is more than the program (see README.md).
		w.res.addPrinted("p90_ms", median(p90), "ms")
		w.res.addPrinted("p99_ms", percentile(all.lat, 99), "ms")
		w.res.add("cpu_us_per_image", median(cpu), "us")
		w.log(fmt.Sprintf("%.0f/s", load.nominal), all)
		logf("  windows p50 %.2f p90 %.2f cpu %.0f", p50, p90, cpu)
		maxRPS, err := w.maxRate(load.ladder, rungShare*o.seconds)
		if err != nil {
			return nil, err
		}
		w.res.addPrinted("max_rps", maxRPS, "1/s")
		// At a fixed offered rate the completion rate is the offered
		// rate unless the run is invalid, so it is printed, not gated.
		w.res.addPrinted("images_per_s", all.rate(), "1/s")
		if all.growing {
			w.res.invalid("the backlog grew during the fixed-rate phase")
		}
	} else {
		if _, err := w.closed(0, 0, nil); err != nil { // one untimed warm-up segment
			return nil, err
		}
		main, err := w.closed(1, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		w.res.add("p50_ms", percentile(main.lat, 50), "ms")
		w.res.addPrinted("p90_ms", percentile(main.lat, 90), "ms")
		w.res.addPrinted("p99_ms", percentile(main.lat, 99), "ms")
		w.res.add("cpu_us_per_image", us(main.cpu)/float64(main.cpuReqs*batchSize), "us")
		w.res.addPrinted("max_rps", median(main.segRates), "1/s")
		w.res.add("images_per_s", batchSize*median(main.segRates), "1/s")
	}
	w.res.add("rss_peak_mb", rssPeakMB(), "MB")
	last, later, err := startRigs(o.cacheDir(), setupReps-setupReps/2)
	if err != nil {
		return nil, err
	}
	last.close()
	var secs []float64
	for _, d := range append(setups, later...) {
		secs = append(secs, d.total.Seconds())
	}
	w.res.add("setup_s", median(secs), "s")
	return w.res, nil
}

// fixedRate runs the fixed-rate phase on inputs built beforehand: settle
// seconds, then seconds cut into windows of window seconds, each window
// an open-loop phase of its own, back to back. The metrics are medians
// over the windows, so a few seconds in which the shared host runs slow
// move a window or two, not the run's figure.
func (w *servingRun) fixedRate(rate, seconds float64) ([]*phase, error) {
	skip, per := max(1, int(rate*settle)), max(1, int(rate*window))
	nwin := max(1, int((seconds-settle)/window))
	reqs, err := w.requests(streamNominal, skip+nwin*per)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the garbage of building the phase is not the server's
	var wins []*phase
	for k := 0; k <= nwin; k++ { // k == 0: the settle
		lo, hi := 0, skip
		if k > 0 {
			lo, hi = skip+(k-1)*per, skip+k*per
		}
		send, verify := w.r.exchange(reqs[lo:hi], nil, lo)
		p := runOpen(rate, hi-lo, runtime.NumCPU(), send, verify)
		w.res.attempted += p.attempted
		w.res.failed += p.failed
		for _, err := range p.errs {
			w.res.note(fmt.Sprintf("%.0f/s: %v", rate, err))
		}
		if k > 0 {
			wins = append(wins, p)
		}
	}
	return wins, nil
}

func (w *servingRun) absorb(name string, p *phase) {
	w.res.attempted += p.attempted
	w.res.failed += p.failed
	for _, err := range p.errs {
		w.res.note(fmt.Sprintf("%s: %v", name, err))
	}
	w.log(name, p)
}

func (w *servingRun) log(name string, p *phase) {
	logf("  %-10s n=%-5d failed=%d rate=%.1f/s p50=%.2fms p90=%.2fms p99=%.2fms%s",
		name, p.attempted, p.failed, p.rate(), percentile(p.lat, 50), percentile(p.lat, 90), percentile(p.lat, 99), lagNote(p))
}

func lagNote(p *phase) string {
	if p.lag == nil {
		return ""
	}
	s := fmt.Sprintf(" lag_p99=%.2fms", percentile(p.lag, 99))
	if p.aborted {
		s += " aborted"
	} else if p.growing {
		s += " backlog-growing"
	}
	return s
}

func (w *servingRun) requests(stream uint64, n int) ([]request, error) {
	if w.hs != nil {
		return hotRequests(w.g, w.hs, stream, n), nil
	}
	return w.r.freshRequests(w.g, stream, n, w.seen)
}

// open runs one open-loop phase from a stream: settle seconds that the
// returned metrics view ignores, then seconds measured.
func (w *servingRun) open(stream uint64, rate, seconds float64, rec *recorder) (*phase, error) {
	skip := int(rate * settle)
	n := skip + max(1, int(rate*seconds))
	reqs, err := w.requests(stream, n)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the garbage of building the phase is not the server's
	send, verify := w.r.exchange(reqs, rec, 0)
	p := runOpen(rate, n, runtime.NumCPU(), send, verify)
	if !p.aborted {
		for i := range p.due {
			rec.add("loadgen.wait", 0, i, p.due[i], p.sent[i])
		}
	}
	w.res.attempted += p.attempted
	w.res.failed += p.failed
	for _, err := range p.errs {
		w.res.note(fmt.Sprintf("%.0f/s: %v", rate, err))
	}
	t := p.trim(skip)
	w.log(fmt.Sprintf("%.0f/s", rate), t)
	return t, nil
}

// maxRate binary-searches the ladder for its highest rung whose phase
// keeps p99 within p99Limit with no failure and no growing backlog, and
// returns the completion rate achieved on that rung (0 when none passes).
// A rung fails only if a second try on fresh inputs fails too: one stall
// of the host would otherwise steer the search far below the capacity.
func (w *servingRun) maxRate(l ladder, seconds float64) (float64, error) {
	lo, hi, best := -1, l.rungs, 0.0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		var pass bool
		for try := uint64(0); try < 2 && !pass; try++ {
			p, err := w.open(streamRung+uint64(mid)+try<<8, l.rate(mid), seconds, nil)
			if err != nil {
				return 0, err
			}
			if pass = p.failed == 0 && !p.growing && percentile(p.lat, 99) <= p99Limit; pass {
				best = p.rate()
			} else if p.aborted {
				break // hopelessly over capacity: no second try
			}
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		w.res.invalid(fmt.Sprintf("even the lowest ladder rung (%.0f/s) misses p99 ≤ %.0f ms", l.base, p99Limit))
	}
	return best, nil
}

// closed runs timed predict_batch segments until seconds of closed-loop
// time have passed (a single segment when seconds is 0).
func (w *servingRun) closed(firstSeg uint64, seconds float64, rec *recorder) (*phase, error) {
	all := &phase{}
	for seg := firstSeg; ; seg++ {
		reqs, err := w.r.batchRequests(w.g, seg, batchSegment, w.seen)
		if err != nil {
			return nil, err
		}
		base := int(seg-firstSeg) * batchSegment
		runtime.GC()
		send, verify := w.r.exchange(reqs, rec, base)
		p := runClosed(len(reqs), runtime.NumCPU(), send, verify)
		w.absorb(fmt.Sprintf("seg%d", seg), p)
		all.attempted += p.attempted
		all.failed += p.failed
		all.lat = append(all.lat, p.lat...)
		all.elapsed += p.elapsed
		all.cpu += p.cpu
		all.cpuReqs += p.cpuReqs
		all.segRates = append(all.segRates, p.rate())
		if all.elapsed.Seconds() >= seconds {
			return all, nil
		}
	}
}

// traced is the per-layer run: the workload's measured phase untraced
// and then traced (their difference is the tracing overhead), the
// server's counters over the traced phase, then the layer probes.
func (w *servingRun) traced() error {
	var untraced, traced *phase
	var err error
	rec := newRecorder()
	var st0, st1 fademl.ServeStats
	half := w.opt.seconds / 2
	load, open := openLoads[w.opt.workload]
	if open {
		if untraced, err = w.open(streamNominal, load.nominal, half, nil); err != nil {
			return err
		}
		st0 = w.r.srv.Stats()
		traced, err = w.open(streamTraced, load.nominal, half, rec)
		st1 = w.r.srv.Stats()
	} else {
		if _, err = w.closed(0, 0, nil); err != nil {
			return err
		}
		if untraced, err = w.closed(1, half, nil); err != nil {
			return err
		}
		st0 = w.r.srv.Stats()
		traced, err = w.closed(1<<10, half, rec)
		st1 = w.r.srv.Stats()
	}
	if err != nil {
		return err
	}
	d := deltaStats(st0, st1)
	res := w.res
	res.add("serve.cache_hit_ratio", d.hitRatio, "ratio")
	res.add("serve.batch_occupancy", d.occupancy, "images")
	res.add("serve.batches", d.batches, "count")
	res.add("serve.shed", d.shed, "count")
	res.add("serve.queue_p50_ms", d.queueP50ms, "ms")
	res.add("serve.queue_p99_ms", d.queueP99ms, "ms")
	lagP99 := 0.0
	if traced.lag != nil {
		lagP99 = percentile(traced.lag, 99)
	}
	res.add("loadgen.lag_p99_ms", lagP99, "ms")
	over, pct := traceOverhead(untraced, traced)
	res.add("trace.overhead_p50_ms", over, "ms")
	res.add("trace.overhead_pct", pct, "%")
	return w.finishTrace(rec, w.probeInputs())
}

// traceOverhead is the traced phase's median latency minus the untraced
// one's, in ms and as a percentage of the untraced median.
func traceOverhead(untraced, traced *phase) (ms, pct float64) {
	u50, t50 := percentile(untraced.lat, 50), percentile(traced.lat, 50)
	return t50 - u50, 100 * (t50 - u50) / u50
}

// probeInputs yields layer-probe inputs of the workload's own kind.
func (w *servingRun) probeInputs() func() probeInput {
	i := 0
	var draws []int
	if w.hs != nil {
		draws = w.g.hotDraws(streamProbe, 4*probeSingles)
	}
	return func() probeInput {
		i++
		switch {
		case w.hs != nil:
			k := draws[i%len(draws)]
			return probeInput{pxs: [][]float64{w.g.image(streamPool, uint64(k))}, lane: w.g.lane(streamProbe, uint64(i))}
		case w.opt.workload == "batch_fresh":
			pxs := make([][]float64, batchSize)
			for j := range pxs {
				pxs[j] = w.g.image(streamProbe, uint64(i*batchSize+j))
			}
			lane := fademl.PrecisionFloat64
			if i%2 == 1 {
				lane = fademl.PrecisionFloat32
			}
			return probeInput{pxs: pxs, lane: lane}
		default:
			return probeInput{pxs: [][]float64{w.g.image(streamProbe, uint64(i))}, lane: w.g.lane(streamProbe, uint64(i))}
		}
	}
}

// finishTrace runs the layer probes and the paper-figure splits, adds
// the load generator's totals and writes the spans out.
func (w *servingRun) finishTrace(rec *recorder, next func() probeInput) error {
	if err := probeLayers(w.r, rec, w.res, w.g, next, w.setups); err != nil {
		return err
	}
	if err := figSplits(w.r.env, rec, w.res); err != nil {
		return err
	}
	w.res.add("loadgen.attempted", float64(w.res.attempted), "count")
	w.res.add("loadgen.succeeded", float64(w.res.attempted-w.res.failed), "count")
	w.res.add("loadgen.failed", float64(w.res.failed), "count")
	path := filepath.Join(w.opt.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.opt.workload, w.opt.seed))
	spans := rec.snapshot()
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	logf("  wrote %d spans to %s", len(spans), path)
	sum := summarize(spans)
	for _, s := range sum[:min(12, len(sum))] {
		logf("  self %-32s n=%-5d p50 %9.1fus self p50 %9.1fus total self %9.0fus", s.Name, s.Count, s.P50us, s.Self50, s.SelfUs)
	}
	return nil
}

// figSplits times one Fig. 7 and one Fig. 9 table run and checks the
// paper metrics they must reproduce.
func figSplits(env *fademl.Env, rec *recorder, res *result) error {
	ctx := context.Background()
	var r7, r9 *figResult
	var err error
	rec.timed("experiments.fig7", 0, 0, func() { r7, err = runFig(ctx, env, false) })
	if err != nil {
		return err
	}
	rec.timed("experiments.fig9", 0, 0, func() { r9, err = runFig(ctx, env, true) })
	if err != nil {
		return err
	}
	res.checkTables(r7, r9)
	spans := rec.snapshot()
	res.add("experiments.fig7_s", medianUs(spans, "experiments.fig7")/1e6, "s")
	res.add("experiments.fig9_s", medianUs(spans, "experiments.fig9")/1e6, "s")
	return nil
}
