// Command htbench is the repository's end-to-end benchmark: it boots
// one serving workload in-process, drives it from a single open-loop
// generator on a seeded schedule, checks every result and the program's
// own accounting, and prints each metric by name with its unit. See
// README.md in this directory for the workloads, the metrics and what
// each per-layer metric predicts.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	htbench --workload submit-zipf --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 makes a traced run that reports the
// per-layer metrics and writes its spans under --out. --workload
// calibrate drives a no-op target and reports the harness's own cost.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/spinwork"
	"repro/internal/stats"
)

// spanBudget bounds a traced run's span buffer (40 bytes a span). A
// workload whose traced phase would record more keeps the spans of
// every n-th request only, so they still cover the whole phase.
const spanBudget = 1 << 19

// The rate ladder max_rate_rps climbs: rung k offers nominal·1.05^k.
// The 5% spacing is finer than the metric's bound in BENCHMARK.json.
// A staircase starts at ladderStart with a stride of ladderStride rungs,
// halved after every probe down to one, so it can reach rungs 0 to
// 2·ladderStart (about 15× nominal) before its stride is one rung.
const (
	ladderStep   = 1.05
	ladderStart  = 28
	ladderStride = 16
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Windows carries a child process's nominal windows to its parent,
	// which reads the windowed metrics over every child's windows.
	Windows []window `json:"windows,omitempty"`
	// Rungs carries the rate-ladder rungs a child's staircase settled on.
	Rungs []float64 `json:"rungs,omitempty"`
}

// window is one nominal-phase window as a child process reports it.
type window struct {
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	OK     int     `json:"ok"`
	CPUNS  int64   `json:"cpu_ns"`
	Allocs uint64  `json:"allocs"`
	Steal  float64 `json:"steal"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
	out      string
	part     int // this child's index
	childMS  int // > 0 in a child: its share of the measured time
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// One P more than the CPUs: the generator holds one for itself (see
	// sleepUntil), and the program keeps the default nproc.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	fl := flag.NewFlagSet("htbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceN int
	fl.StringVar(&o.workload, "workload", "", "submit-zipf | flow-fanout | flow-2node-tcp | calibrate")
	fl.Uint64Var(&o.seed, "seed", 1, "schedule and input seed")
	fl.IntVar(&o.seconds, "seconds", 40, "measured seconds per run")
	fl.IntVar(&traceN, "trace", 0, "1 = traced run printing the per-layer metrics")
	fl.BoolVar(&o.smoke, "smoke", false, "short run: one setup, short phases (for tests)")
	fl.StringVar(&o.out, "out", ".bench_build", "directory traced runs write their spans under")
	fl.IntVar(&o.part, "part", 0, "internal: index of this child process")
	fl.IntVar(&o.childMS, "child-ms", 0, "internal: run as a child measuring this many milliseconds")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (traceN != 0 && traceN != 1) {
		fmt.Fprintln(stderr, "htbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = traceN == 1
	w, err := newWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "htbench:", err)
		return 2
	}
	if o.childMS == 0 {
		printContext(stdout, o)
	}
	var res result
	switch {
	case o.workload == "calibrate":
		res, err = calibrate(w, o)
	case o.trace:
		res, err = traced(w.spec(), o, stderr)
	case o.childMS == 0:
		res, err = runParts(w.spec(), o, stderr)
	default:
		res, err = untraced(w.spec(), o, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "htbench:", err)
		res.Correct, res.Metrics = false, map[string]metric{}
		printResult(stdout, res)
		return 1
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Fprintln(w, string(b))
}

// printContext records what a result is recognisable by on another
// machine: the hardware, the runtime, the code and the seed, plus the
// handler's fixed spin timed directly as a machine-speed check.
func printContext(w io.Writer, o options) {
	ctx := map[string]any{
		"workload":            o.workload,
		"seed":                o.seed,
		"trace":               o.trace,
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go":                  runtime.Version(),
		"cpu":                 cpuModel(),
		"commit":              sourceDigest("."),
		"spin_handler_us_p50": spinCalibration(),
	}
	b, _ := json.Marshal(map[string]any{"context": ctx}) // strings and numbers only: cannot fail
	fmt.Fprintln(w, string(b))
}

// spinCalibration times the handlers' fixed spin outside the program.
func spinCalibration() float64 {
	xs := make([]int64, 1001)
	for i := range xs {
		t0 := now()
		spinwork.Work(spinUnits)
		xs[i] = now() - t0
	}
	return quantileNS(xs, 0.5) / 1e3
}

// boot sets the workload up n times and keeps the last instance; the
// setup time reported is the median.
func boot(name string, seed uint64, n int, tr *tracer) (workload, float64, error) {
	var times []float64
	var w workload
	for i := 0; i < n; i++ {
		var err error
		if w, err = newWorkload(name); err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		err = w.setup(seed, tr)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		if i < n-1 {
			w.close()
		}
	}
	slices.Sort(times)
	return w, times[len(times)/2], nil
}

// phases splits a run's measured seconds.
type phases struct {
	setups        int
	nominal       time.Duration
	probe         time.Duration
	probes        int           // ladder probes
	traced        time.Duration // each of the traced run's two phases
	drain, settle time.Duration
}

func plan(o options, sp spec) phases {
	s := time.Duration(o.seconds) * time.Second
	if o.childMS > 0 {
		s = time.Duration(o.childMS) * time.Millisecond
	}
	// Five probes bring the staircase's stride to one rung; the other
	// five, and the rung it ends on, are what the run reports.
	const probes = 10
	p := phases{
		setups: 3, nominal: s * 3 / 10, probes: probes,
		probe:  s * 6 / 10 / probes,
		traced: s / 2, drain: 2*time.Second + 20*sp.limit, settle: 10 * time.Second,
	}
	if o.smoke {
		p.setups, p.nominal, p.probes = 1, 500*time.Millisecond, 4
		p.probe, p.traced = 250*time.Millisecond, 400*time.Millisecond
	}
	return p
}

// checkPhase turns a phase's broken invariants into an error: a wrong
// value, a second callback for one request, a request that never came
// back, or outcomes that do not add up to what was offered.
func checkPhase(what string, p *phaseStats) error {
	sum := p.ok + p.rejected + p.shed + p.failed + p.wrong + p.missing + p.backlog
	switch {
	case p.wrong != 0:
		return fmt.Errorf("%s: %d results carried a wrong value", what, p.wrong)
	case p.double != 0:
		return fmt.Errorf("%s: %d requests got a second callback", what, p.double)
	case p.missing != 0:
		return fmt.Errorf("%s: %d requests had no callback after the drain", what, p.missing)
	case sum != p.offered:
		return fmt.Errorf("%s: offered %d != ok %d + rejected %d + shed %d + failed %d + backlog %d",
			what, p.offered, p.ok, p.rejected, p.shed, p.failed, p.backlog)
	}
	return nil
}

// settleAndCheck waits for the program to drain and checks its own
// accounting. The accounting may trail the last result callback by a
// moment: serve counts a job accepted only after its admission call has
// queued it, and on flow-2node-tcp the remote node's admission call for
// a flow's last stage can return after the flow's result has reached
// the origin, and a check once read one more job done than accepted
// there. The invariants must therefore hold once the
// program is quiet, within the same limit, not at the first instant.
func settleAndCheck(h *harness, w workload, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	if !h.settle(limit) {
		return fmt.Errorf("%d requests still outstanding %v after the phase", h.outstanding.Load(), limit)
	}
	for {
		err := w.invariants()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

func untraced(sp spec, o options, stderr io.Writer) (result, error) {
	pl := plan(o, sp)
	w, setupS, err := boot(o.workload, o.seed, pl.setups, nil)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	h := newHarness(w, mix64(o.seed)^uint64(o.part), nil)

	p := h.run(sp.nominal, pl.nominal, pl.drain)
	res := result{Attempted: p.offered, Failed: p.errs()}
	if err := checkPhase("nominal", p); err != nil {
		return res, err
	}
	if err := settleAndCheck(h, w, pl.settle); err != nil {
		return res, err
	}
	ws := p.windowStats()
	fmt.Fprintf(stderr, "nominal: generator lag p50=%.1fus p90=%.1fus p99=%.1fus\n",
		quantileNS(p.lag, 0.5)/1e3, quantileNS(p.lag, 0.9)/1e3, quantileNS(p.lag, 0.99)/1e3)
	for i, x := range ws {
		fmt.Fprintf(stderr, "window %d: p50=%.1fus p90=%.1fus cpu=%.2fus/req allocs=%.2f/req lag_p90=%.1fus steal=%.3f\n",
			i, x.p50/1e3, x.p90/1e3, x.cpuPerOK/1e3, x.allocsPerOK, x.lagP90/1e3, x.stealFrac)
	}
	p.lat, p.lag = nil, nil // harness memory, not the program's
	runtime.GC()
	live := float64(int64(readRuntime().liveBytes)-h.bytes()) / (1 << 20)

	rungs, err := ladder(h, w, sp, pl, stderr)
	if err != nil {
		return res, err
	}
	res.Correct = true
	res.Metrics = map[string]metric{
		"setup_s":      {setupS, "s"},
		"ok_frac":      {float64(p.ok) / float64(max(p.offered, 1)), "frac"},
		"live_heap_mb": {live, "MB"},
	}
	res.Rungs = rungs
	for _, x := range ws {
		res.Windows = append(res.Windows, window{finite(x.p50), finite(x.p90), x.ok, x.cpuNS, x.allocs, x.stealFrac})
	}
	return res, nil
}

// ladder walks a staircase over the fixed rate ladder, one short
// open-loop probe per step with the program drained between probes: one
// stride up after a pass, one down after a fail, the stride halving
// after every probe until it is one rung. It returns the rungs probed
// at a stride of one and the rung it ends on; the parent reports
// max_rate_rps as the rate at the median of every child's rungs, the
// rate at which a probe passes about half the time. A probe passes when
// p90 (the median over the probe's windows, so one stall moves one
// window) stays within the workload's limit, at most 0.1% of requests
// are lost, the backlog does not grow across the probe, and the
// generator's median lateness over the probe's last window stays within
// the limit (else it could not offer the rate). Near the knee a probe's
// outcome is close to a coin toss (on flow-2node-tcp, probes at one
// rate passed the 20 ms limit from three quarters down to a quarter of
// the time across 3.6k–5.9k flows/s), so no single decision is trusted:
// every probe after the first five samples the knee, and the median over
// them all places it.
func ladder(h *harness, w workload, sp spec, pl phases, stderr io.Writer) ([]float64, error) {
	probe := func(k int) (bool, error) {
		rate := rung(sp, float64(k))
		p := h.run(rate, pl.probe, 4*sp.limit+100*time.Millisecond)
		if p.wrong != 0 || p.double != 0 {
			return false, checkPhase(fmt.Sprintf("rung %.0f/s", rate), p)
		}
		if err := settleAndCheck(h, w, pl.settle); err != nil {
			return false, fmt.Errorf("rung %.0f/s: %w", rate, err)
		}
		p90 := medianOf(p.windowStats(), func(w windowStat) float64 { return w.p90 })
		errFrac := float64(p.errs()) / float64(max(p.offered, 1))
		grow := p.outEnd - p.outMid
		// A generator that ends the probe late could not offer the rate.
		pass := errFrac <= 0.001 && p90 <= float64(sp.limit) &&
			grow <= max(256, int64(rate*sp.limit.Seconds())) && p.endLag <= float64(sp.limit)
		fmt.Fprintf(stderr, "ladder: rung %d %.0f/s p90=%.0fus err=%.4f grow=%d late=%.0fus steal=%.3f pass=%v\n",
			k, rate, p90/1e3, errFrac, grow, p.endLag/1e3, p.stealFrac(), pass)
		return pass, nil
	}
	return staircase(pl.probes, probe)
}

// staircase makes n probes, starting at ladderStart with a stride of
// ladderStride rungs, and returns the rungs probed at a stride of one
// and the rung it ends on.
func staircase(n int, probe func(k int) (bool, error)) ([]float64, error) {
	var rungs []float64
	k, stride, step := ladderStart, ladderStride, 0 // step: the stride that led to k
	for i := 0; i < n; i++ {
		pass, err := probe(k)
		if err != nil {
			return nil, err
		}
		if step == 1 {
			rungs = append(rungs, float64(k))
		}
		step = stride
		if pass {
			k += stride
		} else {
			k -= stride
		}
		stride = max(stride/2, 1)
	}
	return append(rungs, float64(k)), nil
}

// rung is the rate of rung k of the workload's ladder.
func rung(sp spec, k float64) float64 { return sp.nominal * math.Pow(ladderStep, k) }

// finite keeps a latency that no request met (every one failed) out of
// the JSON, which has no infinity.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat32
	}
	return x
}

func traced(sp spec, o options, stderr io.Writer) (result, error) {
	pl := plan(o, sp)
	every, capacity := spanSampling(sp, pl.traced)
	tr := newTracer(capacity, every)
	w, _, err := boot(o.workload, o.seed, 1, tr)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	h := newHarness(w, mix64(o.seed), tr)

	base := h.run(sp.nominal, pl.traced, pl.drain)
	if err := checkPhase("untraced baseline", base); err != nil {
		return result{}, err
	}
	if err := settleAndCheck(h, w, pl.settle); err != nil {
		return result{}, err
	}
	c0 := w.counters()
	tr.on.Store(true)
	p := h.run(sp.nominal, pl.traced, pl.drain)
	tr.stop()
	res := result{Attempted: p.offered, Failed: p.errs()}
	if err := checkPhase("traced", p); err != nil {
		return res, err
	}
	if err := settleAndCheck(h, w, pl.settle); err != nil {
		return res, err
	}
	dc := w.counters().sub(c0)
	spans, dropped := tr.recorded()
	if dropped > 0 {
		fmt.Fprintf(stderr, "htbench: span buffer full, %d spans dropped\n", dropped)
	}
	lt := analyze(spans)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return res, err
	}
	// One file per workload, replaced by the next traced run, so repeated
	// runs do not pile up spans on disk.
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s.jsonl", o.workload))
	if err := writeSpans(path, spans); err != nil {
		return res, err
	}
	fmt.Fprintf(stderr, "htbench: %d spans (every %d-th request) written to %s; median self time (us): %v\n",
		len(spans), every, path, selfTimes(spans))

	res.Correct = true
	res.Metrics = layerMetrics(w, p, base, dc, lt)
	return res, nil
}

// spanSampling sizes a traced phase's span buffer and picks which
// requests it records: every n-th by id, n = 1 unless the phase would
// pass spanBudget. Wire spans carry no request id, so a workload with
// wire spans records every request.
func spanSampling(sp spec, phase time.Duration) (every uint64, capacity int) {
	reqs := sp.nominal * phase.Seconds() * 1.25 // headroom over the Poisson count
	every = 1
	if sp.wireSpans == 0 {
		every = uint64(max(1, math.Ceil(reqs*sp.spans/spanBudget)))
	}
	return every, int(reqs*(sp.spans/float64(every)+sp.wireSpans)) + 4096
}

func calibrate(w workload, o options) (result, error) {
	sp := w.spec()
	pl := plan(o, sp)
	h := newHarness(w, mix64(o.seed), nil)
	h.run(sp.nominal, pl.probe, time.Second) // warm the harness's buffers
	p := h.run(sp.nominal, pl.nominal, time.Second)
	if err := checkPhase("calibrate", p); err != nil {
		return result{}, err
	}
	// cpu_us_per_req is what the harness still adds to every workload's
	// figure (the result callback and the clock reads around submit);
	// gen.cpu_us_per_req is the pacing the workloads' figure leaves out.
	ok := float64(max(p.ok, 1))
	return result{Correct: true, Attempted: p.offered, Failed: p.errs(), Metrics: map[string]metric{
		"cpu_us_per_req":     {float64(p.cpuNS) / 1e3 / ok, "us"},
		"gen.cpu_us_per_req": {float64(p.genCPU) / 1e3 / ok, "us"},
		"allocs_per_req":     {float64(p.allocs) / ok, "count"},
		"gen.lag_p50_us":     {quantileNS(p.lag, 0.5) / 1e3, "us"},
	}}, nil
}

// runParts splits an untraced run across fresh child processes, one
// after another. A process draws a performance mode at start (on a
// 2-vCPU VM, one process in a few ran every phase about a quarter
// faster than the rest), so no one process may decide a run: the
// windowed metrics (p50_us, p90_us, cpu_us_per_req, allocs_per_req)
// are read from the quiet half of every child's nominal windows taken
// together, so a process that ran under steal yields its windows to
// one that did not; max_rate_rps is read at the median of every child's
// staircase rungs; every other metric is the median over the children.
// Children get the same seed; their schedules differ by part.
func runParts(sp spec, o options, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var parts []result
	var waited time.Duration
	for i := 0; i < processes; i++ {
		if !o.smoke {
			w := awaitQuietHost(hostWait - waited)
			waited += w
			fmt.Fprintf(stderr, "host: waited %.1fs for steal to stop before part %d\n", w.Seconds(), i)
		}
		args := []string{"--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--out", o.out,
			"--part", fmt.Sprint(i), "--child-ms", fmt.Sprint(o.seconds * 1000 / processes)}
		if o.smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		var r result
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || runErr != nil || !r.Correct {
			return result{Attempted: r.Attempted, Failed: r.Failed},
				fmt.Errorf("part %d failed: %v", i, errors.Join(runErr, err))
		}
		parts = append(parts, r)
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	var ws []windowStat
	var rungs []float64
	for _, r := range parts {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		rungs = append(rungs, r.Rungs...)
		for _, x := range r.Windows {
			ws = append(ws, windowStat{p50: x.P50, p90: x.P90, ok: x.OK, cpuNS: x.CPUNS, allocs: x.Allocs, stealFrac: x.Steal})
		}
	}
	for name, m := range parts[0].Metrics {
		xs := make([]float64, len(parts))
		for i, r := range parts {
			xs[i] = r.Metrics[name].Value
		}
		slices.Sort(xs)
		res.Metrics[name] = metric{stats.Quantile(xs, 0.5), m.Unit}
	}
	q, n := quiet(ws)
	fmt.Fprintf(stderr, "quiet windows: %d of %d, steal=%.3f p50=%.1fus p90=%.1fus cpu=%.2fus/req allocs=%.2f/req\n",
		n, len(ws), q.stealFrac, q.p50/1e3, q.p90/1e3, q.cpuPerOK/1e3, q.allocsPerOK)
	res.Metrics["p50_us"] = metric{q.p50 / 1e3, "us"}
	res.Metrics["p90_us"] = metric{q.p90 / 1e3, "us"}
	res.Metrics["cpu_us_per_req"] = metric{q.cpuPerOK / 1e3, "us"}
	res.Metrics["allocs_per_req"] = metric{q.allocsPerOK, "count"}
	slices.Sort(rungs)
	res.Metrics["max_rate_rps"] = metric{rung(sp, stats.Quantile(rungs, 0.5)), "1/s"}
	return res, nil
}

// processes is how many child processes an untraced run is split across.
const processes = 7

// hostWait bounds how long one run waits, over all its child processes,
// for the host to stop stealing CPU time (see awaitQuietHost).
const hostWait = 45 * time.Second

// awaitQuietHost returns once a short probe sees the host steal nothing,
// or once limit has passed, and reports how long it took. On the 2-vCPU
// VM this was built on, the host took 10–33% of the CPU time for a
// minute or two at a stretch, several times an hour; through such a
// spell every window of a run was stolen, p90 rose up to twentyfold and
// max_rate_rps fell eightfold, which measures the host's other tenants
// rather than the program. A run therefore starts each child when the
// host is quiet, if it becomes quiet soon enough, and measures as it
// finds it otherwise. The probe looks only at the steal counter, never
// at the program.
func awaitQuietHost(limit time.Duration) time.Duration {
	start := time.Now()
	for stealProbe(200*time.Millisecond) > 0 && time.Since(start) < limit {
		time.Sleep(time.Second)
	}
	return time.Since(start)
}

// stealProbe keeps every CPU busy for d and returns the share of that
// time the host stole. An idle virtual CPU accrues no steal, so the
// probe has to run to see it.
func stealProbe(d time.Duration) float64 {
	s0 := hostSteal()
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				spinwork.Work(spinUnits)
			}
		}()
	}
	wg.Wait()
	return hostSteal().frac(s0)
}

// childEnv marks a child process, so a test binary re-executed as one
// runs the benchmark instead of its tests.
const childEnv = "HTBENCH_CHILD"
