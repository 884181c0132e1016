package main

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/obs"
)

// allocSetupReps is how often the allocator is built and trained; training
// takes milliseconds, so more repetitions steady its median.
const allocSetupReps = 9

// runAlloc is the second case study: the staged gray-box search against
// the ML-augmented VM allocator at DefaultConfig scale, scored by the
// packing MILP through RatioOverride, with the budget and cache `e2eperf
// alloc` uses when given no flags.
func runAlloc(o options) (*run, error) {
	r := newRun()
	// The allocator is the one `e2eperf alloc` trains by default (seed 1);
	// the workload seed picks the searches run against it.
	cfg := alloc.DefaultConfig()
	cfg.Seed = 1
	var setups []float64
	var sys *alloc.System
	for i := 0; i < allocSetupReps; i++ {
		t0 := time.Now()
		var err error
		if sys, err = alloc.New(cfg); err != nil {
			return nil, err
		}
		sys.Train(nil)
		setups = append(setups, seconds(time.Since(t0)))
	}
	r.setE2E("setup_s", median(setups), "s")

	reg := obs.NewRegistry()
	var milpSolves, replayed, budgetStops atomic.Int64
	w := &inproc{
		name: "alloc-attack",
		// The flag defaults of `e2eperf alloc`: staged pipeline, FD step
		// 1e-4, 200 iterations × 6 restarts, alpha-d 0.5, MILP scoring
		// every 2 iterations, a fresh 4096-entry cache with quantum 1 per
		// run, and the search seed derived as seed+400.
		target: sys.Target(alloc.PipelineOptions{FDStep: 1e-4, Seed: cfg.Seed}),
		config: func(seed uint64) core.GradientConfig {
			g := core.DefaultGradientConfig()
			g.Iters = 200
			g.Restarts = 6
			g.AlphaD = 0.5
			g.EvalEvery = 2
			g.Seed = seed + 400
			g.EvalCache = core.NewEvalCache(4096, 1.0)
			return g
		},
		verify: func(r *run, res *core.SearchResult) { verifyAlloc(r, sys, res) },
		oracle: func(span func(time.Time, error, []float64)) oracleFunc {
			return func(x []float64) (ratio, su, opt float64, err error) {
				t0 := time.Now()
				ratio, su, opt, err = sys.Ratio(x)
				span(t0, err, x)
				for _, c := range sys.Quantize(x) {
					if c > 0 { // an empty mix never reaches the MILP
						milpSolves.Add(1)
						break
					}
				}
				return ratio, su, opt, err
			}
		},
		// The MILP's own counters reach the traced run through System.Obs,
		// the allocator's public telemetry hook.
		beginTrace: func() { sys.Obs = reg },
		endTrace:   func() { sys.Obs = nil },
		// The replay solves the packing MILP directly, which also shows
		// whether it ran out of its node budget (the oracle's error says so
		// only when no incumbent was found).
		replayOracle: func(x []float64) error {
			n := sys.Quantize(x)
			sol := sys.OptimalPacking(n)
			replayed.Add(1)
			if sol.Nodes >= cfg.MILPMaxNodes {
				budgetStops.Add(1)
			}
			return nil
		},
		// A run fits only five or six of these searches, and their times
		// vary with the seed (distinct mixes, so MILP solves, per search):
		// freely drawn seeds spread search_s 16% across ten workload
		// seeds. A pool the size of a run keeps runs comparable.
		seedPool:    6,
		layerPrefix: "alloc.stage",
	}
	traced := runInproc(o, w, r)
	if !o.trace {
		return r, nil
	}
	r.setLayer("alloc.train_s", median(setups), "s")
	spans := summarizeSpans(traced)
	r.setLayer("alloc.oracle_calls", median(spans.calls), "count")
	r.setLayer("alloc.oracle_ms_p50", median(spans.ms), "ms")
	r.setLayer("alloc.oracle_busy_s", median(spans.busy), "s")
	nodes := float64(reg.Counter("milp.nodes").Value())
	r.setLayer("milp.nodes_per_solve", frac(nodes, float64(milpSolves.Load())), "count")
	r.setLayer("milp.warm_frac", frac(float64(reg.Counter("milp.warm_hits").Value()), nodes), "ratio")
	r.setLayer("milp.dual_pivots_per_node", frac(float64(reg.Counter("milp.dual_pivots").Value()), nodes), "count")
	r.setLayer("milp.cold_fallbacks", float64(reg.Counter("milp.cold_fallbacks").Value()), "count")
	r.setLayer("milp.budget_stop_frac", frac(float64(budgetStops.Load()), float64(replayed.Load())), "ratio")
	r.setLayer("milp.no_incumbent", float64(spans.fails), "count")
	return r, nil
}

// verifyAlloc checks an allocator verdict without trusting the search: the
// reported optimum must not beat the LP relaxation's lower bound, and the
// reported system utilization must be exactly System.Forward of the
// quantized mix.
func verifyAlloc(r *run, sys *alloc.System, res *core.SearchResult) {
	if !res.Found {
		return
	}
	n := sys.Quantize(res.BestX)
	mix := make([]float64, sys.T)
	load := make([][]float64, sys.T)
	for t, c := range n {
		mix[t] = float64(c)
		load[t] = make([]float64, sys.R)
		for k := range load[t] {
			load[t][k] = float64(c) * sys.Cfg.TypeDemands[t][k]
		}
	}
	if u := sys.Forward(mix); u != res.BestSysMLU {
		r.problem("alloc-attack: BestSysMLU %v, System.Forward gives %v for mix %v", res.BestSysMLU, u, n)
	}
	lb, err := alloc.FractionalOptimal(load, sys.Cfg.HostCaps)
	if err != nil {
		r.problem("alloc-attack: LP lower bound for mix %v: %v", n, err)
		return
	}
	if res.BestOptMLU < lb-1e-9*math.Max(1, lb) {
		r.problem("alloc-attack: packing optimum %v beats the LP lower bound %v for mix %v", res.BestOptMLU, lb, n)
	}
	if res.BestOptMLU > 1e-12 && res.BestRatio != res.BestSysMLU/res.BestOptMLU {
		r.problem("alloc-attack: BestRatio %v is not BestSysMLU/BestOptMLU = %v", res.BestRatio, res.BestSysMLU/res.BestOptMLU)
	}
}
