package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// oracleFunc has the shape of core.AttackTarget.RatioOverride.
type oracleFunc func(x []float64) (ratio, sys, opt float64, err error)

// inproc describes an in-process workload: the target under analysis, how
// each search is configured, and the hooks the traced run needs.
type inproc struct {
	name   string
	target *core.AttackTarget
	// config returns the program's default configuration for one search
	// (with a fresh cache where the program's CLI makes one per run).
	config func(seed uint64) core.GradientConfig
	// verify checks one verdict against an oracle that does not trust the
	// code under test.
	verify func(r *run, res *core.SearchResult)
	// oracle returns an oracle that makes exactly the calls the untraced
	// target's true-ratio evaluation makes, timing the layer below through
	// span. It is installed as RatioOverride on a copy of the target.
	oracle func(span func(t0 time.Time, err error, x []float64)) oracleFunc
	// beginTrace/endTrace bracket one traced search (layer counters that
	// live outside the oracle, such as LP solver statistics).
	beginTrace func()
	endTrace   func()
	// replayOracle re-evaluates the layer below the oracle at a visited
	// point, single-threaded, for the first-principles cost model.
	replayOracle func(x []float64) error
	// seedPool, when positive, makes search k use member (seed+k) mod
	// seedPool of a fixed pool of search seeds instead of a fresh seed, so
	// every run covers nearly the same searches.
	seedPool int
	// layerPrefix names the per-stage metrics ("dote.stage" or
	// "alloc.stage"); fwd reports forward costs too.
	layerPrefix string
	fwd         bool
}

// searchRec is one completed search.
type searchRec struct {
	wall  time.Duration
	res   *core.SearchResult
	cache core.EvalCacheStats
}

// tracedRec is one traced search plus everything recorded around it.
type tracedRec struct {
	searchRec
	spans   []time.Duration // oracle-layer spans
	union   time.Duration   // wall time covered by at least one span
	fails   int
	points  [][]float64
	cpu     time.Duration
	alloc   uint64
	gcCPU   float64
	curve   [][2]float64
	replay  stageCosts
	oracleC time.Duration // replayed per-call oracle-layer cost
}

// runInproc measures back-to-back searches for the window and fills the
// end-to-end metrics; with tracing it re-runs every search through the
// tracing wrappers, fills the shared per-layer metrics and returns the
// traced searches for the workload's own layers.
func runInproc(o options, w *inproc, r *run) []tracedRec {
	var recs []searchRec
	var traced []tracedRec
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < window; k++ {
		seed := deriveSeed(o.seed, 1, k)
		if w.seedPool > 0 {
			seed = deriveSeed(0, 1, int((o.seed+uint64(k))%uint64(w.seedPool)))
		}
		cfg := w.config(seed)
		t0 := time.Now()
		res, err := core.GradientSearchContext(context.Background(), w.target, cfg)
		wall := time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			r.problem("%s search %d: %v", w.name, k, err)
			continue
		}
		if missed(res) {
			r.failed++
		}
		w.verify(r, res)
		rec := searchRec{wall: wall, res: res}
		if cfg.EvalCache != nil {
			rec.cache = cfg.EvalCache.Stats()
		}
		recs = append(recs, rec)
		if o.trace {
			tr := w.traceOne(seed)
			checkFidelity(r, w.name, k, rec, tr.searchRec)
			curveLine(w.name, k, seed, tr.curve)
			traced = append(traced, tr)
		}
	}

	var walls, elapsed, ratios []float64
	var busy time.Duration
	for _, s := range recs {
		walls = append(walls, seconds(s.wall))
		elapsed = append(elapsed, seconds(s.res.Elapsed))
		busy += s.wall
		if s.res.Found {
			ratios = append(ratios, s.res.BestRatio)
		}
	}
	r.setE2E("search_s", median(elapsed), "s")
	r.setE2E("job_p50_s", median(walls), "s")
	r.setE2E("jobs_per_hour", frac(float64(len(recs))*3600, seconds(busy)), "1/h")
	r.setE2E("best_ratio", bestRatio(ratios), "ratio")
	if o.trace {
		hwm, err := peakRSSMB(0)
		if err != nil {
			r.problem("peak memory: %v", err)
		}
		r.setLayer("peak_heap_mb", hwm, "MB")
		w.layerMetrics(r, recs, traced)
	}
	return traced
}

// missed reports a verdict that is not complete: the search stopped on its
// deadline or found nothing.
func missed(res *core.SearchResult) bool {
	return !res.Found || res.StopReason == core.StopDeadline
}

// checkFidelity requires the traced search to reproduce the untraced one:
// the wrappers must not change the program's path. Oracle evaluations are
// compared as requests (evaluations plus cache hits): when concurrent
// restarts miss the same cache key at once both evaluate it, so the split
// between hits and evaluations depends on scheduling while the requests
// are fixed by the trajectory.
func checkFidelity(r *run, name string, k int, plain, traced searchRec) {
	p, t := plain.res, traced.res
	pReq, tReq := int64(p.LPEvals)+plain.cache.Hits, int64(t.LPEvals)+traced.cache.Hits
	if p.BestRatio != t.BestRatio || pReq != tReq || p.GradEvals != t.GradEvals || p.FaultCount != t.FaultCount {
		r.problem("%s search %d: traced run diverged: ratio %v/%v oracle requests %d/%d grads %d/%d faults %d/%d",
			name, k, p.BestRatio, t.BestRatio, pReq, tReq, p.GradEvals, t.GradEvals, p.FaultCount, t.FaultCount)
	}
}

// maxPoints bounds the visited points kept per traced search for replay.
const maxPoints = 3

// traceOne re-runs one search through the tracing wrappers.
func (w *inproc) traceOne(seed uint64) tracedRec {
	var mu sync.Mutex
	var tr tracedRec
	var searchStart time.Time
	var intervals [][2]time.Duration
	seen := 0
	span := func(t0 time.Time, err error, x []float64) {
		t1 := time.Now()
		mu.Lock()
		defer mu.Unlock()
		tr.spans = append(tr.spans, t1.Sub(t0))
		intervals = append(intervals, [2]time.Duration{t0.Sub(searchStart), t1.Sub(searchStart)})
		if err != nil {
			tr.fails++
		}
		// Keep points spread over the search: the first visited, then
		// every 8th, up to maxPoints.
		if seen%8 == 0 && len(tr.points) < maxPoints {
			tr.points = append(tr.points, append([]float64(nil), x...))
		}
		seen++
	}
	target := *w.target
	target.RatioOverride = w.oracle(span)
	cfg := w.config(seed)
	cfg.OnImprove = func(ratio, _, _ float64, _ int, elapsed time.Duration) {
		tr.curve = append(tr.curve, [2]float64{elapsed.Seconds(), ratio})
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()
	if w.beginTrace != nil {
		w.beginTrace()
	}
	searchStart = time.Now()
	res, err := core.GradientSearchContext(context.Background(), &target, cfg)
	tr.wall = time.Since(searchStart)
	if w.endTrace != nil {
		w.endTrace()
	}
	tr.cpu = cpuTime() - cpu0
	tr.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&ms1)
	tr.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		// The untraced search with this seed succeeded, so the fidelity
		// check reports the difference.
		res = &core.SearchResult{}
	}
	tr.res = res
	tr.union = unionLen(intervals)
	if cfg.EvalCache != nil {
		tr.cache = cfg.EvalCache.Stats()
	}

	tr.replay = replayStages(w.target.Pipeline, tr.points)
	if w.replayOracle != nil && len(tr.points) > 0 {
		var costs []float64
		for _, x := range tr.points {
			t0 := time.Now()
			_ = w.replayOracle(x) // a failing replay still took its time
			costs = append(costs, float64(time.Since(t0)))
		}
		tr.oracleC = time.Duration(median(costs))
	}
	return tr
}

// layerMetrics fills the per-layer metrics shared by the in-process
// workloads from the traced searches.
func (w *inproc) layerMetrics(r *run, recs []searchRec, traced []tracedRec) {
	var plainWall, tracedWall, self, grads, lpEvals, ttb, cpuBusy, predicted, resid, allocMB []float64
	var faults, fails, attempts, cpu, gc, hits, lookups float64
	for i, t := range traced {
		hits += float64(t.cache.Hits)
		lookups += float64(t.cache.Hits + t.cache.Misses)
		plainWall = append(plainWall, seconds(recs[i].wall))
		tracedWall = append(tracedWall, seconds(t.wall))
		self = append(self, seconds(t.wall-t.union))
		grads = append(grads, float64(t.res.GradEvals))
		lpEvals = append(lpEvals, float64(t.res.LPEvals))
		ttb = append(ttb, seconds(t.res.TimeToBest))
		faults += float64(t.res.FaultCount)
		fails += float64(t.fails)
		attempts += float64(len(t.spans))
		cpu += seconds(t.cpu)
		gc += t.gcCPU
		allocMB = append(allocMB, float64(t.alloc)/(1<<20))

		// First-principles busy time: per-call cost × call count for the
		// oracle layer, every stage's forward per pipeline evaluation and
		// forward+VJP per gradient.
		var fwd, vjp float64
		for _, c := range t.replay {
			fwd += c.fwd
			vjp += c.vjp
		}
		pred := float64(len(t.spans))*seconds(t.oracleC) +
			float64(t.res.Evals)*fwd + float64(t.res.GradEvals)*(fwd+vjp)
		cpuBusy = append(cpuBusy, seconds(t.cpu))
		predicted = append(predicted, pred)
		resid = append(resid, seconds(t.cpu)-pred)
	}
	r.setLayer("core.search_self_s", median(self), "s")
	r.setLayer("core.grad_evals", median(grads), "count")
	r.setLayer("core.oracle_evals", median(lpEvals), "count")
	r.setLayer("core.faults", faults, "count")
	r.setLayer("core.time_to_best_s", median(ttb), "s")
	r.setLayer("core.busy_s", median(cpuBusy), "s")
	r.setLayer("core.predicted_busy_s", median(predicted), "s")
	r.setLayer("core.model_residual_s", median(resid), "s")
	r.setLayer("trace.overhead_s", median(tracedWall)-median(plainWall), "s")
	r.setLayer("oracle_fail_frac", frac(fails, attempts), "ratio")
	misses := 0.0
	for _, s := range recs {
		if missed(s.res) {
			misses++
		}
	}
	r.setLayer("job_miss_frac", frac(misses, float64(len(recs))), "ratio")
	r.setLayer("core.evalcache_hit_frac", frac(hits, lookups), "ratio")
	r.setLayer("go.alloc_mb_per_search", median(allocMB), "MB")
	r.setLayer("go.gc_cpu_frac", frac(gc, cpu), "ratio")

	// Per-stage replay costs, pooled over all traced searches.
	names := map[string]bool{}
	for _, t := range traced {
		for n := range t.replay {
			names[n] = true
		}
	}
	for n := range names {
		var f, v []float64
		for _, t := range traced {
			if c, ok := t.replay[n]; ok {
				f = append(f, c.fwd*1e6)
				v = append(v, c.vjp*1e6)
			}
		}
		if w.fwd {
			r.setLayer(w.layerPrefix+"."+sanitize(n)+".fwd_us", median(f), "us")
		}
		r.setLayer(w.layerPrefix+"."+sanitize(n)+".vjp_us", median(v), "us")
	}
}

// spanSummary pools the oracle-layer spans of the traced searches: every
// span in ms, and per search the call count and summed span time.
type spanSummary struct {
	ms, calls, busy []float64
	fails           int
}

func summarizeSpans(traced []tracedRec) spanSummary {
	var o spanSummary
	for _, t := range traced {
		var b float64
		for _, d := range t.spans {
			o.ms = append(o.ms, float64(d)/float64(time.Millisecond))
			b += seconds(d)
		}
		o.calls = append(o.calls, float64(len(t.spans)))
		o.busy = append(o.busy, b)
		o.fails += t.fails
	}
	return o
}

// stageCosts maps a stage name to its median per-call forward and VJP cost
// in seconds.
type stageCosts map[string]struct{ fwd, vjp float64 }

// replayReps is how often each stage call is repeated per point; the
// median is kept.
const replayReps = 7

// replayStages times each pipeline stage's public Forward and VJP at the
// given points, feeding every stage the input and cotangent the chain rule
// gives it there.
func replayStages(p *core.Pipeline, points [][]float64) stageCosts {
	stages := p.Stages()
	fwd := make([][]float64, len(stages))
	vjp := make([][]float64, len(stages))
	for _, x := range points {
		inputs := make([][]float64, len(stages))
		cur := x
		for i, s := range stages {
			inputs[i] = cur
			var ts []float64
			var out []float64
			for k := 0; k < replayReps; k++ {
				t0 := time.Now()
				out = s.Forward(cur)
				ts = append(ts, seconds(time.Since(t0)))
			}
			fwd[i] = append(fwd[i], median(ts))
			cur = out
		}
		cot := make([]float64, len(cur))
		for i := range cot {
			cot[i] = 1
		}
		for i := len(stages) - 1; i >= 0; i-- {
			d, ok := stages[i].(core.Differentiable)
			if !ok {
				break
			}
			var ts []float64
			var next []float64
			for k := 0; k < replayReps; k++ {
				t0 := time.Now()
				next = d.VJP(inputs[i], cot)
				ts = append(ts, seconds(time.Since(t0)))
			}
			vjp[i] = append(vjp[i], median(ts))
			cot = next
		}
	}
	out := stageCosts{}
	for i, s := range stages {
		c := out[s.Name()]
		c.fwd += median(fwd[i])
		c.vjp += median(vjp[i])
		out[s.Name()] = c
	}
	return out
}

// unionLen is the total length covered by at least one interval.
func unionLen(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]time.Duration(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total time.Duration
	cur := s[0]
	for _, v := range s[1:] {
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
			continue
		}
		if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	return total + cur[1] - cur[0]
}

// cpuTime is this process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// relClose reports |a-b| <= tol·max(1,|a|,|b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
