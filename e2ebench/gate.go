package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/serve"
	"repro/internal/te"
)

const (
	// gateCheckpoint is the checked-in quick GÉANT model every job attacks.
	gateCheckpoint = "examples/gate/geant-quick.ckpt"
	// gateTimeout is every job's server-side deadline.
	gateTimeout = 12 * time.Second
	// verifyBudget bounds the time spent checking verdicts after the run.
	verifyBudget = 90 * time.Second
	// attackSeed is the standing attack job's seed; every attack job after
	// the first repeats it, whatever the workload seed.
	attackSeed = 401
	// gatePool is the number of gate-job seeds the workload seed rotates
	// through. A run fits three deadline-bound jobs, one of them a gate
	// job, so gate seeds drawn freely spread best_ratio 24% across ten
	// workload seeds.
	gatePool = 4
	// gateThreshold is the CI bound gate jobs are judged against.
	gateThreshold = 2.0
)

// jobRec is one job as its client saw it.
type jobRec struct {
	submit         time.Time
	running        time.Time
	verdict        time.Time
	view           serve.JobView
	res            *core.SearchResult
	curve          [][2]float64
	err            error
	index          int
	seed           uint64
	spec           serve.JobSpec
	createdToStart time.Duration
	run            time.Duration
}

// missed reports a job that did not deliver a complete verdict: it
// errored, hit its deadline, or found nothing.
func (j *jobRec) missed() bool {
	return j.err != nil || j.res == nil || missed(j.res)
}

// runGeantGate drives a loopback analyzer daemon with a deterministic mix
// of gate and attack jobs against the checked-in GÉANT checkpoint.
func runGeantGate(o options) (*run, error) {
	r := newRun()
	ckpt, err := os.ReadFile(gateCheckpoint)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(o.bin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}

	// Set-up is daemon boot until the first healthy /healthz; the last
	// boot serves the run.
	var boots []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if d, took, err = bootDaemon(o.bin); err != nil {
			return nil, err
		}
		boots = append(boots, seconds(took))
	}
	r.setE2E("setup_s", median(boots), "s")
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()

	client := &serve.Client{Base: d.base}
	var jobs []*jobRec
	window := time.Duration(o.seconds * float64(time.Second))
	cpu0, _ := procCPU(d.cmd.Process.Pid)
	start := time.Now()
	// One closed-loop client: the next job is submitted when the previous
	// verdict arrives.
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		j := newJob(o.seed, i, ckpt)
		runJob(client, j)
		jobs = append(jobs, j)
	}
	end := time.Now()

	var prom map[string]float64
	var scrape time.Duration
	var cpuUsed float64
	if o.trace {
		cpu1, _ := procCPU(d.cmd.Process.Pid)
		cpuUsed = cpu1 - cpu0
		t0 := time.Now()
		text, err := client.Metrics(context.Background())
		scrape = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
		prom = parseProm(text)
	}
	var hwm float64
	if o.trace {
		if hwm, err = peakRSSMB(d.cmd.Process.Pid); err != nil {
			r.problem("daemon peak memory: %v", err)
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Check every verdict after the daemon is gone, so checking never
	// competes with it for the cores.
	t0 := time.Now()
	target, _, err := serve.BuildFromCheckpoint(&serve.JobSpec{Checkpoint: ckpt, Scenario: serve.Scenario{Opaque: true}})
	if err != nil {
		return nil, err
	}
	load := time.Since(t0)
	// Every verdict is bounded with the revised engine, which solves a
	// Geant LP in milliseconds; the best verdict of the run also gets the
	// exact certificate with the program's default engine, which takes
	// seconds per Geant solve today.
	bound := te.NewMLUSolver(target.PS)
	bound.SetMethod(lp.MethodRevised)
	vctx, vcancel := context.WithTimeout(context.Background(), verifyBudget)
	defer vcancel()
	var best *core.SearchResult

	var ratios, walls, runs, waits, builds, overhead, grads, oracle, ttb []float64
	var faults, lpEvals, misses float64
	first, last := end, start
	for _, j := range jobs {
		r.attempted++
		if j.submit.Before(first) {
			first = j.submit
		}
		if j.verdict.After(last) {
			last = j.verdict
		}
		if j.missed() {
			r.failed++
			misses++
		}
		if j.err != nil {
			fmt.Fprintf(os.Stderr, "job %d: %v\n", j.index, j.err)
			continue
		}
		verifyDOTE(vctx, r, "geant-gate", target, bound, j.res, false)
		if j.res.Found && (best == nil || j.res.BestRatio > best.BestRatio) {
			best = j.res
		}
		if j.res.Found {
			ratios = append(ratios, j.res.BestRatio)
			ttb = append(ttb, seconds(j.res.TimeToBest))
		}
		walls = append(walls, seconds(j.verdict.Sub(j.submit)))
		runs = append(runs, seconds(j.run))
		waits = append(waits, seconds(j.createdToStart))
		if !j.running.IsZero() && j.view.StartedAt != nil {
			builds = append(builds, float64(j.running.Sub(*j.view.StartedAt))/float64(time.Millisecond))
		}
		overhead = append(overhead, float64(j.verdict.Sub(j.submit)-j.run)/float64(time.Millisecond))
		grads = append(grads, float64(j.res.GradEvals))
		oracle = append(oracle, float64(j.res.LPEvals))
		faults += float64(j.res.FaultCount)
		lpEvals += float64(j.res.LPEvals)
		if o.trace {
			curveLine("geant-gate", j.index, j.seed, j.curve)
		}
	}
	if best != nil {
		verifyDOTE(vctx, r, "geant-gate", target, te.NewMLUSolver(target.PS), best, true)
	}
	completed := float64(len(walls))
	r.setE2E("search_s", median(runs), "s")
	r.setE2E("job_p50_s", median(walls), "s")
	r.setE2E("jobs_per_hour", frac(completed*3600, seconds(last.Sub(first))), "1/h")
	r.setE2E("best_ratio", bestRatio(ratios), "ratio")
	if !o.trace {
		return r, nil
	}

	r.setLayer("experiments.load_s", seconds(load), "s")
	r.setLayer("peak_heap_mb", hwm, "MB")
	lpSolves := prom["lp_solve_ms_count"]
	r.setLayer("lp.solves", lpSolves, "count")
	r.setLayer("lp.solve_ms_p50", prom[`lp_solve_ms{0.5}`], "ms")
	r.setLayer("lp.solve_ms_max", prom[`lp_solve_ms{0.99}`], "ms")
	r.setLayer("lp.busy_s", frac(prom["lp_solve_ms_sum"]/1000, completed), "s")
	r.setLayer("lp.pivots_per_solve", frac(prom["lp_solve_pivots_sum"], prom["lp_solve_pivots_count"]), "count")
	r.setLayer("lp.warm_hit_frac", frac(prom["lp_warm_hits"], prom["lp_solves"]), "ratio")
	restartFaults := prom["search_fault_batch"]
	for k, v := range prom {
		if strings.HasPrefix(k, "search_restart_") && strings.HasSuffix(k, "_faults") {
			restartFaults += v
		}
	}
	r.setLayer("lp.failures", restartFaults, "count")

	// Per-stage costs from the daemon's own pipeline histograms; the
	// opaque routing+MLU stage is the FD estimator over te's incremental
	// evaluator.
	var stageMS float64
	for k, v := range prom {
		if strings.HasPrefix(k, "pipeline_") && strings.HasSuffix(k, "_ms_sum") {
			stageMS += v
		}
		if !strings.HasPrefix(k, "pipeline_") || !strings.Contains(k, "opaque") {
			continue
		}
		switch {
		case strings.HasSuffix(k, "_vjp_ms_count"):
			r.setLayer("te.fd_vjps", v, "count")
		case strings.HasSuffix(k, "_vjp_ms{0.5}"):
			r.setLayer("te.fd_vjp_ms_p50", v, "ms")
		}
	}
	for _, st := range []struct{ metric, prom string }{{"dnn", "dnn"}, {"post-processor", "post_processor"}} {
		r.setLayer("dote.stage."+st.metric+".fwd_us", prom["pipeline_"+st.prom+"_forward_ms{0.5}"]*1000, "us")
		r.setLayer("dote.stage."+st.metric+".vjp_us", prom["pipeline_"+st.prom+"_vjp_ms{0.5}"]*1000, "us")
	}

	r.setLayer("core.grad_evals", median(grads), "count")
	r.setLayer("core.oracle_evals", median(oracle), "count")
	r.setLayer("core.faults", faults, "count")
	r.setLayer("core.time_to_best_s", median(ttb), "s")
	hitFrac := frac(prom["evalcache_hits"], prom["evalcache_hits"]+prom["evalcache_misses"])
	r.setLayer("core.evalcache_hit_frac", hitFrac, "ratio")
	busy := frac(cpuUsed, completed)
	predicted := frac((stageMS+prom["lp_solve_ms_sum"])/1000, completed)
	r.setLayer("core.busy_s", busy, "s")
	r.setLayer("core.predicted_busy_s", predicted, "s")
	r.setLayer("core.model_residual_s", busy-predicted, "s")
	r.setLayer("oracle_fail_frac", frac(faults, lpEvals), "ratio")
	r.setLayer("job_miss_frac", frac(misses, float64(len(jobs))), "ratio")
	r.setLayer("trace.overhead_s", seconds(scrape), "s")

	r.setLayer("serve.queue_wait_s_p50", median(waits), "s")
	r.setLayer("serve.run_s_p50", median(runs), "s")
	r.setLayer("serve.build_ms_p50", median(builds), "ms")
	r.setLayer("serve.http_overhead_ms_p50", median(overhead), "ms")
	r.setLayer("serve.shared_cache_hit_frac", hitFrac, "ratio")
	return r, nil
}

// newJob builds the index-th job of the deterministic mix: odd indices are
// gate jobs (no memoization; each gate job of a run takes the next seed of
// the pool, starting where the workload seed points), even ones the
// standing attack job (shared per-checkpoint cache).
func newJob(seed uint64, i int, ckpt []byte) *jobRec {
	j := &jobRec{index: i}
	spec := serve.JobSpec{
		Label:      fmt.Sprintf("bench-%d", i),
		Checkpoint: ckpt,
		Scenario:   serve.Scenario{Opaque: true},
		Budget:     serve.Budget{TimeoutMS: gateTimeout.Milliseconds()},
	}
	if i%2 == 1 {
		j.seed = deriveSeed(0, 2, int((seed+uint64(i/2))%gatePool))
		spec.Threshold = gateThreshold
		spec.Budget.EvalCache = -1
	} else {
		j.seed = attackSeed
	}
	spec.Budget.Seed = j.seed
	j.spec = spec
	return j
}

// runJob submits one job, follows its stream to the verdict and fetches
// the full result.
func runJob(c *serve.Client, j *jobRec) {
	ctx, cancel := context.WithTimeout(context.Background(), gateTimeout+60*time.Second)
	defer cancel()
	j.submit = time.Now()
	v, err := c.Submit(ctx, j.spec)
	if err != nil {
		j.err = err
		j.verdict = time.Now()
		return
	}
	_, err = c.Stream(ctx, v.ID, func(ev serve.Event) error {
		switch ev.Type {
		case "running":
			j.running = time.Now()
		case "improved":
			j.curve = append(j.curve, [2]float64{float64(ev.ElapsedMS) / 1000, ev.Ratio})
		}
		return nil
	})
	j.verdict = time.Now()
	if err != nil {
		j.err = err
		return
	}
	if j.view, err = c.Get(ctx, v.ID); err != nil {
		j.err = err
		return
	}
	if j.view.State != serve.JobDone {
		j.err = fmt.Errorf("job ended %s: %s", j.view.State, j.view.Error)
		return
	}
	if j.view.StartedAt == nil || j.view.FinishedAt == nil {
		j.err = fmt.Errorf("job %s has no start or finish time", v.ID)
		return
	}
	j.createdToStart = j.view.StartedAt.Sub(j.view.CreatedAt)
	j.run = j.view.FinishedAt.Sub(*j.view.StartedAt)
	if j.res, err = core.ReadResultJSON(bytes.NewReader(j.view.Result)); err != nil {
		j.err = fmt.Errorf("job %s result: %w", v.ID, err)
	}
}

// daemon is a running `e2eperf serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *tailBuffer
	done   chan error
}

// bootDaemon starts the daemon on a free loopback port with its default
// settings and returns once /healthz answers, with the time that took.
func bootDaemon(bin string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d := &daemon{stderr: &tailBuffer{max: 1 << 16}, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "serve", "-listen", "127.0.0.1:0")
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 && len(addr) == 0 {
				addr <- strings.Fields(line[i:])[0]
			}
		}
		d.done <- d.cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case err := <-d.done:
		return nil, 0, fmt.Errorf("daemon exited before listening: %v: %s", err, d.stderr)
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return nil, 0, fmt.Errorf("daemon did not report its address: %s", d.stderr)
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			_ = d.stop()
			return nil, 0, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the daemon to exit, killing it if it
// takes longer than its own shutdown budget.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return nil
	case <-time.After(45 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("daemon ignored SIGTERM: %s", d.stderr)
	}
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// procCPU is a process's user+system CPU time in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (ut + st) / clockTicks, nil
}

// parseProm reads Prometheus text exposition into name → value, keying
// quantile samples as name{q}.
func parseProm(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.Index(name, `{quantile="`); i >= 0 {
			name = name[:i] + "{" + strings.TrimSuffix(name[i+len(`{quantile="`):], `"}`) + "}"
		}
		m[name] = v
	}
	return m
}
