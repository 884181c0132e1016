// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload against the analyzer with the program's own defaults, checks
// every verdict with an oracle that does not trust the code under test, and
// prints one JSON result as the last line of standard output:
//
//	e2ebench --workload abilene-table1|geant-gate|alloc-attack \
//	         --seed N --seconds S --trace 0|1 [--bin path/to/e2eperf]
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, measured by timing calls into each layer's
// public functions from this package (nothing inside the program is
// instrumented for the benchmark). run.sh builds this command and the
// e2eperf daemon from the checkout and runs it. NOTES.md explains the
// workloads, the metrics and the layer → metric → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: its end-to-end and per-layer metrics
// plus the operation counts. A workload returns an error only when it could
// not measure at all; a wrong answer is reported through problems.
type run struct {
	attempted, failed int
	e2e, layer        map[string]metric
	problems          []string
}

func newRun() *run {
	return &run{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// problem records a failed output or fidelity check; any problem makes the
// run incorrect.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string // e2eperf binary (geant-gate only)
}

var workloads = map[string]func(options) (*run, error){
	"abilene-table1": runAbilene,
	"geant-gate":     runGeantGate,
	"alloc-attack":   runAlloc,
}

func main() {
	workload := flag.String("workload", "", "workload name: abilene-table1, geant-gate or alloc-attack")
	seed := flag.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	bin := flag.String("bin", ".bench_build/e2eperf", "e2eperf binary the geant-gate workload boots as its daemon")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload abilene-table1|geant-gate|alloc-attack --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r, err := fn(options{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	complete(r, r.e2e, endToEnd)
	complete(r, r.layer, perLayer)
	out := report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.e2e,
	}
	if *trace == 1 {
		out.Metrics = r.layer
	}
	if r.attempted < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: no search or job completed inside the window")
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with
// their units. Every workload reports every one of them.
var (
	endToEnd = map[string]string{
		"setup_s":       "s",
		"search_s":      "s",
		"job_p50_s":     "s",
		"jobs_per_hour": "1/h",
		"best_ratio":    "ratio",
	}
	perLayer = map[string]string{
		"experiments.load_s":                         "s",
		"alloc.train_s":                              "s",
		"lp.solves":                                  "count",
		"lp.solve_ms_p50":                            "ms",
		"lp.solve_ms_max":                            "ms",
		"lp.busy_s":                                  "s",
		"lp.pivots_per_solve":                        "count",
		"lp.warm_hit_frac":                           "ratio",
		"lp.failures":                                "count",
		"te.fd_vjps":                                 "count",
		"te.fd_vjp_ms_p50":                           "ms",
		"dote.stage.dnn.fwd_us":                      "us",
		"dote.stage.dnn.vjp_us":                      "us",
		"dote.stage.post-processor.fwd_us":           "us",
		"dote.stage.post-processor.vjp_us":           "us",
		"dote.stage.routing.fwd_us":                  "us",
		"dote.stage.routing.vjp_us":                  "us",
		"dote.stage.mlu.fwd_us":                      "us",
		"dote.stage.mlu.vjp_us":                      "us",
		"alloc.stage.vm-scorer.vjp_us":               "us",
		"alloc.stage.placement-softmax.vjp_us":       "us",
		"alloc.stage.fragmentation-metric_fd.vjp_us": "us",
		"alloc.oracle_calls":                         "count",
		"alloc.oracle_ms_p50":                        "ms",
		"alloc.oracle_busy_s":                        "s",
		"milp.nodes_per_solve":                       "count",
		"milp.warm_frac":                             "ratio",
		"milp.dual_pivots_per_node":                  "count",
		"milp.cold_fallbacks":                        "count",
		"milp.budget_stop_frac":                      "ratio",
		"milp.no_incumbent":                          "count",
		"core.search_self_s":                         "s",
		"core.grad_evals":                            "count",
		"core.oracle_evals":                          "count",
		"core.faults":                                "count",
		"core.evalcache_hit_frac":                    "ratio",
		"core.time_to_best_s":                        "s",
		"core.busy_s":                                "s",
		"core.predicted_busy_s":                      "s",
		"core.model_residual_s":                      "s",
		"oracle_fail_frac":                           "ratio",
		"job_miss_frac":                              "ratio",
		"trace.overhead_s":                           "s",
		"serve.queue_wait_s_p50":                     "s",
		"serve.run_s_p50":                            "s",
		"serve.build_ms_p50":                         "ms",
		"serve.http_overhead_ms_p50":                 "ms",
		"serve.shared_cache_hit_frac":                "ratio",
		"go.alloc_mb_per_search":                     "MB",
		"go.gc_cpu_frac":                             "ratio",
		"peak_heap_mb":                               "MB",
	}
)

// complete checks a workload's metrics against the declared set and
// reports a layer the workload does not exercise as 0: it did no work
// there.
func complete(r *run, got map[string]metric, declared map[string]string) {
	for name, m := range got {
		if unit, ok := declared[name]; !ok || unit != m.Unit {
			r.problem("metric %s (%s) is not declared with that unit", name, m.Unit)
		}
	}
	for name, unit := range declared {
		if _, ok := got[name]; !ok {
			got[name] = metric{0, unit}
		}
	}
}

// --- statistics ---

// median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// geomean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	l := 0.0
	for _, x := range xs {
		l += math.Log(x)
	}
	return math.Exp(l / float64(len(xs)))
}

// bestRatio is the geometric mean of the verified best ratios; a run with
// no verified ratio reports 1, the ratio of a system that is never worse
// than optimal.
func bestRatio(verified []float64) float64 {
	if len(verified) == 0 {
		return 1
	}
	return geomean(verified)
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// deriveSeed maps (workload seed, stream, index) to a well-mixed search
// seed (splitmix64 finalizer), so neighbouring workload seeds do not share
// search seeds.
func deriveSeed(seed uint64, stream, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(stream)<<32 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// sanitize maps a stage name onto the metric-name alphabet [A-Za-z0-9_.-].
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '.', r == '-':
			return r
		}
		return '_'
	}, name)
}

// peakRSSMB reads a process's resident-memory high-water mark (VmHWM) in
// MB; pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// curveLine prints one search's ratio-vs-elapsed convergence curve as a
// JSON line ahead of the result line (traced runs only).
func curveLine(workload string, index int, seed uint64, pts [][2]float64) {
	b, err := json.Marshal(map[string]any{
		"curve": workload, "search": index, "seed": seed, "elapsed_s_ratio": pts,
	})
	if err == nil {
		fmt.Println(string(b))
	}
}
