// Command perfbench is the repository's benchmark. It builds the tiny
// profile deployment through the same constructors fademl-serve uses,
// drives it with seeded workloads from one process, checks every answer
// and prints the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced run. See README.md in this directory.
//
//	perfbench --workload predict_fresh --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20
//	perfbench steady --runs 10
//	perfbench prime    # train the weight cache; run.sh calls it first
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
)

type metric struct {
	name  string
	value float64
	unit  string
	// printed metrics appear in the report but not in the JSON object.
	printed bool
}

// result is one workload's outcome.
type result struct {
	// valid is false when the run measured something other than what it
	// claims (a growing backlog in a fixed-rate phase).
	valid             bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

func newResult() *result { return &result{valid: true} }

func (r *result) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit})
}

func (r *result) addPrinted(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: v, unit: unit, printed: true})
}

func (r *result) note(s string) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, s)
	}
}

func (r *result) invalid(why string) {
	r.valid = false
	r.note("invalid run: " + why)
}

func (r *result) correct() bool { return r.valid && r.failed == 0 && r.attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) json() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if m.printed {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1 // JSON has no NaN; -1 is never a measured value of these metrics
		}
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	return out
}

// report prints the human-readable metrics and counts.
func (r *result) report(workload string) {
	fmt.Printf("workload %s\n", workload)
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-34s %14.4f ratio\n", "fail_ratio", ratio)
	fmt.Printf("  attempted %d succeeded %d failed %d correct %v\n", r.attempted, r.attempted-r.failed, r.failed, r.correct())
	for _, n := range r.notes {
		fmt.Printf("  ! %s\n", n)
	}
}

func run(o options) (*result, error) {
	logf("perfbench: workload %s seed %d seconds %g trace %v", o.workload, o.seed, o.seconds, o.trace)
	if o.workload == "paper_tables" {
		return runPaperTables(o)
	}
	return runServing(o)
}

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "steady" || os.Args[1] == "prime") {
		var err error
		if os.Args[1] == "steady" {
			err = steady(os.Args[2:])
		} else {
			fs := flag.NewFlagSet("prime", flag.ExitOnError)
			dir := fs.String("dir", ".bench_build", "directory for the weight cache")
			if err = fs.Parse(os.Args[2:]); err == nil {
				err = primeCache(*dir)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for the weight cache and span output")
	flag.Parse()
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", o.workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	all := map[string]jsonResult{}
	total := newResult()
	for _, name := range names {
		o.workload = name
		res, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.report(name)
		all[name] = res.json()
		total.attempted += res.attempted
		total.failed += res.failed
		total.valid = total.valid && res.valid
		if len(names) == 1 {
			total = res
		}
	}
	var line []byte
	if len(names) == 1 {
		line, _ = json.Marshal(total.json())
	} else {
		line, _ = json.Marshal(struct {
			jsonResult
			Workloads map[string]jsonResult `json:"workloads"`
		}{jsonResult{Correct: total.correct(), Attempted: total.attempted, Failed: total.failed, Metrics: map[string]jsonMetric{}}, all})
	}
	fmt.Println(string(line))
	if !total.correct() {
		os.Exit(1)
	}
}
