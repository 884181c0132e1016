package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dote"
	"repro/internal/experiments"
	"repro/internal/lp"
	"repro/internal/te"
)

// setupReps is how often a workload sets its system up; setup_s is the
// median.
const setupReps = 3

// runAbilene is the paper's Table 1 search: the white-box gradient analyzer
// against DOTE-Hist on Abilene at quick scale, searches back to back with
// the default GradientConfig.
func runAbilene(o options) (*run, error) {
	r := newRun()
	// The model is Table 1's quick-scale DOTE-Hist (setup seed 1), trained
	// afresh in every set-up; the workload seed picks the searches.
	opts := experiments.QuickSetup(dote.Hist)
	var setups []float64
	var s *experiments.Setup
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if s, err = experiments.Prepare(opts); err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
	}
	r.setE2E("setup_s", median(setups), "s")

	// The verifier solves with its own solver instance (same default
	// engine as te.OptimalMLU), so checking a verdict never touches the
	// warm solvers the program reuses.
	check := te.NewMLUSolver(s.PS)
	replay := te.NewMLUSolver(s.PS)
	var lp0, lpDelta lp.SolverStatsSnapshot
	w := &inproc{
		name:   "abilene-table1",
		target: s.Target,
		config: func(seed uint64) core.GradientConfig {
			c := core.DefaultGradientConfig()
			c.Seed = seed
			return c
		},
		verify: func(r *run, res *core.SearchResult) {
			verifyDOTE(context.Background(), r, "abilene-table1", s.Target, check, res, true)
		},
		oracle: func(span func(time.Time, error, []float64)) oracleFunc {
			// The body of AttackTarget.RatioCtx for a never-cancelled
			// context, with a span around the optimal-MLU LP.
			t := s.Target
			return func(x []float64) (ratio, sys, opt float64, err error) {
				sys = t.Pipeline.EvalScalar(x)
				d := t.Demand(x)
				if d.Total() == 0 {
					return 1, sys, 0, nil
				}
				t0 := time.Now()
				opt, _, err = te.OptimalMLUCtx(context.Background(), t.PS, d)
				span(t0, err, x)
				if err != nil {
					return 0, 0, 0, err
				}
				if opt <= 0 {
					return 1, sys, opt, nil
				}
				return sys / opt, sys, opt, nil
			}
		},
		beginTrace: func() { lp0 = te.SolverStatsFor(s.PS) },
		endTrace: func() {
			d := te.SolverStatsFor(s.PS).Sub(lp0)
			lpDelta.Solves += d.Solves
			lpDelta.Pivots += d.Pivots
			lpDelta.WarmHits += d.WarmHits
		},
		replayOracle: func(x []float64) error {
			_, _, err := replay.Solve(s.Target.Demand(x))
			return err
		},
		layerPrefix: "dote.stage",
		fwd:         true,
	}
	traced := runInproc(o, w, r)
	if o.trace {
		r.setLayer("experiments.load_s", median(setups), "s")
		lpLayer(r, traced)
		r.setLayer("lp.pivots_per_solve", frac(float64(lpDelta.Pivots), float64(lpDelta.Solves)), "count")
		r.setLayer("lp.warm_hit_frac", frac(float64(lpDelta.WarmHits), float64(lpDelta.Solves)), "ratio")
	}
	return r, nil
}

// lpLayer reports the LP layer from the oracle spans around
// te.OptimalMLUCtx.
func lpLayer(r *run, traced []tracedRec) {
	o := summarizeSpans(traced)
	r.setLayer("lp.solves", float64(len(o.ms)), "count")
	r.setLayer("lp.solve_ms_p50", median(o.ms), "ms")
	r.setLayer("lp.solve_ms_max", maxOf(o.ms), "ms")
	r.setLayer("lp.busy_s", median(o.busy), "s")
	r.setLayer("lp.failures", float64(o.fails), "count")
}

// verifyDOTE checks a DOTE verdict without trusting the search: the
// reported system MLU must be exactly the pipeline's value at BestX, and
// BestRatio must be BestSysMLU/BestOptMLU. The demand at BestX is then
// solved by the benchmark's own solver and routed with the returned splits
// through te.MLU, a primal certificate. With exact set the routed MLU must
// reproduce BestOptMLU within 1e-9 (the solver must use the program's
// default engine); otherwise it only has to bound it from above, since a
// claimed optimum above a routing anyone can find is wrong.
func verifyDOTE(ctx context.Context, r *run, name string, t *core.AttackTarget, solver *te.MLUSolver, res *core.SearchResult, exact bool) {
	if !res.Found {
		return
	}
	if len(res.BestX) != t.InputDim {
		r.problem("%s: BestX has %d coordinates, want %d", name, len(res.BestX), t.InputDim)
		return
	}
	if sys := t.Pipeline.EvalScalar(res.BestX); sys != res.BestSysMLU {
		r.problem("%s: BestSysMLU %v, pipeline gives %v at BestX", name, res.BestSysMLU, sys)
	}
	if res.BestOptMLU > 0 && res.BestRatio != res.BestSysMLU/res.BestOptMLU {
		r.problem("%s: BestRatio %v is not BestSysMLU/BestOptMLU = %v", name, res.BestRatio, res.BestSysMLU/res.BestOptMLU)
	}
	d := t.Demand(res.BestX)
	_, splits, err := solver.SolveCtx(ctx, d)
	if err != nil {
		r.problem("%s: optimal-MLU LP at BestX: %v", name, err)
		return
	}
	if err := routable(t, d, splits); err != nil {
		r.problem("%s: optimal splits at BestX: %v", name, err)
		return
	}
	routed, _ := te.MLU(t.PS, d, splits)
	switch {
	case exact && !relClose(routed, res.BestOptMLU, 1e-9):
		r.problem("%s: routing the optimal splits gives MLU %v, result claims BestOptMLU %v", name, routed, res.BestOptMLU)
	case !exact && res.BestOptMLU > routed*(1+1e-9):
		r.problem("%s: claimed optimum %v exceeds the MLU %v of a feasible routing", name, res.BestOptMLU, routed)
	}
}

// routable checks that splits route every positive demand in full: each
// such pair's splits are non-negative and sum to 1. Splits of zero-demand
// pairs carry no traffic and are not checked.
func routable(t *core.AttackTarget, d te.TrafficMatrix, splits te.Splits) error {
	off, total := t.PS.Offsets()
	if len(splits) != total {
		return fmt.Errorf("%d splits, want %d", len(splits), total)
	}
	for i, pp := range t.PS.PairPaths {
		if d[i] <= 0 {
			continue
		}
		sum := 0.0
		for k := range pp {
			v := splits[off[i]+k]
			if v < -1e-9 {
				return fmt.Errorf("pair %d path %d has split %g", i, k, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("pair %d with demand %g has splits summing to %g", i, d[i], sum)
		}
	}
	return nil
}
