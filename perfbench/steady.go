package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness check reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady repeats the suite: each run is a fresh process of this binary
// with its own seed. Per workload and end-to-end metric it prints the
// median, the quartiles (as Python's statistics.quantiles(n=4) gives
// them), the spread (Q3 − Q1) / median and the metric's bound.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload, each with its own seed")
	seed0 := fs.Int("seed0", 1, "seed of the first run; run i uses seed0+i")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark description")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*spec)
	if err != nil {
		return err
	}
	var b benchmarkSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("%s: %w", *spec, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	worst := 0.0
	for _, w := range b.Workloads {
		name := w.Name
		values := map[string][]float64{}
		for i := 0; i < *runs; i++ {
			seed := *seed0 + i
			t := time.Now()
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, out.String())
			}
			last := lastLine(out.String())
			var r jsonResult
			if err := json.Unmarshal([]byte(last), &r); err != nil {
				return fmt.Errorf("%s seed %d: last line %q: %w", name, seed, last, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: incorrect run: %s", name, seed, last)
			}
			for k, m := range r.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done in %.1fs\n", name, seed, time.Since(t).Seconds())
		}
		for _, m := range b.EndToEnd {
			v := values[m.Name]
			if len(v) == 0 {
				return fmt.Errorf("%s: no values for %s", name, m.Name)
			}
			med := median(v)
			q1, q3 := quartiles(v)
			spread := (q3 - q1) / med
			mark := "ok"
			if spread > m.Bound/3 {
				mark = "WIDE"
			}
			worst = max(worst, spread/m.Bound)
			fmt.Printf("%-14s %-14s median %12.4f %-6s q1 %12.4f q3 %12.4f spread %6.2f%% bound %5.1f%% %s\n",
				name, m.Name, med, m.Unit, q1, q3, 100*spread, 100*m.Bound, mark)
		}
	}
	fmt.Printf("worst spread / bound: %.2f\n", worst)
	return nil
}

func lastLine(s string) string {
	var last string
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last
}
