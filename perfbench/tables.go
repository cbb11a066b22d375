package main

import (
	"context"
	"fmt"
	"time"

	fademl "repro"
	"repro/internal/experiments"
)

// The paper's behaviour contract on the f64 path: Fig. 7 neutralizes
// 60.91% of TM-I-successful panels and Fig. 9 keeps 72.00% of panels on
// target, over 150 panels each.
const (
	tablePanels     = 150
	wantNeutralized = "60.91"
	wantSurvived    = "72.00"
)

// figResult is a Fig. 7 or Fig. 9 table.
type figResult = experiments.Fig7Result

func runFig(ctx context.Context, env *fademl.Env, aware bool) (*figResult, error) {
	if aware {
		return fademl.RunFig9(ctx, env, fademl.SweepOptions{})
	}
	return fademl.RunFig7(ctx, env, fademl.SweepOptions{})
}

// checkTables counts every panel as attempted and fails a table whose
// panel count or headline rate differs from the paper contract.
func (r *result) checkTables(r7, r9 *figResult) {
	for _, t := range []struct {
		name, got, want string
		panels          int
	}{
		{"fig7 neutralization", fmt.Sprintf("%.2f", 100*r7.NeutralizationRate()), wantNeutralized, len(r7.Panels)},
		{"fig9 survival", fmt.Sprintf("%.2f", 100*r9.SurvivalRate()), wantSurvived, len(r9.Panels)},
	} {
		r.attempted += t.panels
		if t.panels != tablePanels || t.got != t.want {
			r.failed += max(t.panels, 1)
			r.note(fmt.Sprintf("%s %s%% over %d panels, want %s%% over %d", t.name, t.got, t.panels, t.want, tablePanels))
		}
	}
}

// runPaperTables regenerates the Fig. 7 and Fig. 9 tables (zero
// SweepOptions: the paper's grid, no curves) until the run time has
// passed, at least once. The grid is fixed by the paper, so the seed
// does not change the work.
func runPaperTables(o options) (*result, error) {
	res := newResult()
	if o.trace {
		r, setups, err := startRigs(o.cacheDir(), 1)
		if err != nil {
			return nil, err
		}
		defer r.close()
		w := &servingRun{opt: o, r: r, setups: setups, g: newGenerator(o.seed), res: res, seen: dedup{}}
		return res, w.finishTrace(newRecorder(), w.probeInputs())
	}
	var setups []float64
	var env *fademl.Env
	for range setupReps {
		t := time.Now()
		e, err := fademl.NewEnv(fademl.ProfileTiny(), o.cacheDir(), nil)
		if err != nil {
			return nil, fmt.Errorf("load env: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		env = e
	}
	res.add("setup_s", median(setups), "s")
	ctx := context.Background()
	var t7, t9 []float64
	panels := 0
	start := time.Now()
	for len(t7) == 0 || time.Since(start).Seconds() < o.seconds {
		t := time.Now()
		r7, err := runFig(ctx, env, false)
		if err != nil {
			return nil, err
		}
		t7 = append(t7, time.Since(t).Seconds())
		t = time.Now()
		r9, err := runFig(ctx, env, true)
		if err != nil {
			return nil, err
		}
		t9 = append(t9, time.Since(t).Seconds())
		res.checkTables(r7, r9)
		panels += len(r7.Panels) + len(r9.Panels)
		logf("  tables: fig7 %.2fs fig9 %.2fs", t7[len(t7)-1], t9[len(t9)-1])
	}
	res.add("panels_per_s", float64(panels)/time.Since(start).Seconds(), "1/s")
	res.add("fig7_s", median(t7), "s")
	res.add("fig9_s", median(t9), "s")
	res.add("rss_peak_mb", rssPeakMB(), "MB")
	return res, nil
}
