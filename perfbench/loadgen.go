package main

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// doer performs one step on request i; an error fails the request.
type doer func(i int) error

// phase is the outcome of one load phase.
type phase struct {
	attempted, failed int
	// lat is per-request latency in ms: from the due time in an open
	// loop, from the send in a closed loop. A failed request is +Inf, so
	// it misses every latency limit.
	lat []float64
	// lag is how late each request was sent, in ms (open loop only).
	lag []float64
	// sent and done are per-request send and completion times.
	sent, done []time.Time
	// due is each request's scheduled time (open loop only).
	due     []time.Time
	elapsed time.Duration
	// segRates is the completion rate of each closed-loop segment.
	segRates []float64
	// cpu is the process's CPU time (server and load generator) from the
	// first send to the last reply, over cpuReqs requests; verification
	// and the settle trim are not applied to it.
	cpu     time.Duration
	cpuReqs int
	// growing marks a backlog that grew during the phase: the generator
	// fell further behind its schedule at the end than at the start.
	growing bool
	// aborted marks an open-loop phase abandoned once a request went out
	// abortLag late; only the requests actually sent are kept.
	aborted bool
	errs    []error
}

// backlogGrowth is how much later (mean lag of the last tenth of the
// phase over the first tenth) the generator may run before the backlog
// counts as growing.
const backlogGrowth = 10 * time.Millisecond

// abortLag ends an open-loop phase that has fallen hopelessly behind, so
// a rate far above capacity costs little more than its nominal length.
const abortLag = 250 * time.Millisecond

// maxConns caps load concurrency at the number of CPUs: more would
// measure the scheduler rather than the server.
func maxConns(want int) int {
	return max(1, min(want, runtime.NumCPU()))
}

func newPhase(n int) *phase {
	return &phase{attempted: n, lat: make([]float64, n), sent: make([]time.Time, n), done: make([]time.Time, n)}
}

func (p *phase) record(i int, err error, mu *sync.Mutex) {
	if err == nil {
		return
	}
	p.lat[i] = math.Inf(1)
	mu.Lock()
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
	mu.Unlock()
}

// runOpen sends n requests on a fixed schedule (request i is due at
// start + i/rate) over at most maxConns(conns) connections. A request
// whose connection is still busy waits, and its latency counts from the
// due time, so a stall is charged to every request it delays. verify,
// when set, checks each reply after the phase.
func runOpen(rate float64, n, conns int, do, verify doer) *phase {
	p := newPhase(n)
	p.lag = make([]float64, n)
	p.due = make([]time.Time, n)
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	cpu0 := cpuTime()
	for i := range p.due {
		p.due[i] = start.Add(time.Duration(i) * period)
	}
	var next atomic.Int64
	var stop atomic.Bool
	sent := make([]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < maxConns(conns); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || stop.Load() {
					return
				}
				if d := time.Until(p.due[i]); d > 0 {
					time.Sleep(d)
				}
				if stop.Load() {
					return
				}
				sent[i] = true
				p.sent[i] = time.Now()
				if p.sent[i].Sub(p.due[i]) > abortLag {
					stop.Store(true)
				}
				err := do(i)
				p.done[i] = time.Now()
				p.lag[i] = ms(p.sent[i].Sub(p.due[i]))
				p.lat[i] = ms(p.done[i].Sub(p.due[i]))
				p.record(i, err, &mu)
			}
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	p.verify(sent, verify)
	if stop.Load() {
		p.keep(sent)
		p.aborted, p.growing = true, true
	}
	p.cpu, p.cpuReqs = cpu, p.attempted
	p.elapsed = lastOf(p.done).Sub(start)
	p.growing = p.growing || backlogGrew(p.lag)
	return p
}

// backlogGrew compares the mean lag of the last tenth of a phase with the
// first tenth.
func backlogGrew(lag []float64) bool {
	n := len(lag)
	if n < 10 {
		return false
	}
	k := n / 10
	return meanOf(lag[n-k:])-meanOf(lag[:k]) > ms(backlogGrowth)
}

// trim returns the phase without its first skip requests: the transient
// while the system settles into a new rate. Failures stay counted in the
// full phase; the trimmed view is for the metrics.
func (p *phase) trim(skip int) *phase {
	skip = min(skip, p.attempted-1)
	if skip <= 0 {
		return p
	}
	t := &phase{lat: p.lat[skip:], sent: p.sent[skip:], done: p.done[skip:], aborted: p.aborted, cpu: p.cpu, cpuReqs: p.cpuReqs}
	t.attempted = len(t.lat)
	for _, v := range t.lat {
		if math.IsInf(v, 1) {
			t.failed++
		}
	}
	from := p.sent[skip]
	if p.due != nil {
		t.lag, t.due, from = p.lag[skip:], p.due[skip:], p.due[skip]
		t.growing = p.aborted || backlogGrew(t.lag)
	}
	t.elapsed = lastOf(t.done).Sub(from)
	return t
}

// pool appends q's requests to p, as one phase of both. Whether the
// backlog grew is then a question about p's whole lag sequence, which
// the caller asks once pooling is done.
func (p *phase) pool(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.lag = append(p.lag, q.lag...)
	p.elapsed += q.elapsed
	p.cpu += q.cpu
	p.cpuReqs += q.cpuReqs
	p.aborted = p.aborted || q.aborted
}

// keep drops the requests that were never sent.
func (p *phase) keep(sent []bool) {
	j := 0
	for i, ok := range sent {
		if !ok {
			continue
		}
		p.lat[j], p.lag[j], p.sent[j], p.done[j], p.due[j] = p.lat[i], p.lag[i], p.sent[i], p.done[i], p.due[i]
		j++
	}
	p.lat, p.lag, p.sent, p.done, p.due = p.lat[:j], p.lag[:j], p.sent[:j], p.done[:j], p.due[:j]
	p.attempted = j
}

// runClosed sends n requests over at most maxConns(conns) connections,
// each connection sending its next request when the previous reply
// arrives. verify, when set, checks each reply after the phase.
func runClosed(n, conns int, do, verify doer) *phase {
	p := newPhase(n)
	start := time.Now()
	cpu0 := cpuTime()
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < maxConns(conns); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				p.sent[i] = time.Now()
				err := do(i)
				p.done[i] = time.Now()
				p.lat[i] = ms(p.done[i].Sub(p.sent[i]))
				p.record(i, err, &mu)
			}
		}()
	}
	wg.Wait()
	p.cpu, p.cpuReqs = cpuTime()-cpu0, p.attempted
	sent := make([]bool, n)
	for i := range sent {
		sent[i] = true
	}
	p.verify(sent, verify)
	p.elapsed = lastOf(p.done).Sub(start)
	return p
}

// verify checks every sent request that has not already failed. It runs
// after the phase, so decoding and comparing replies stays off the timed
// path and out of the connections' busy time.
func (p *phase) verify(sent []bool, verify doer) {
	if verify == nil {
		return
	}
	var mu sync.Mutex
	for i, ok := range sent {
		if ok && !math.IsInf(p.lat[i], 1) {
			p.record(i, verify(i), &mu)
		}
	}
}

// rate is successful completions per second.
func (p *phase) rate() float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

func lastOf(ts []time.Time) time.Time {
	var last time.Time
	for _, t := range ts {
		if t.After(last) {
			last = t
		}
	}
	return last
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// newClient is an HTTP/1.1 client holding at most conns connections.
func newClient(conns int) *http.Client {
	conns = maxConns(conns)
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Second,
	}
}

// post sends body and returns the status and the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
