package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

// TestMain lets runParts re-execute the test binary as a benchmark
// child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runSmoke runs one short benchmark and returns its parsed last line.
func runSmoke(t *testing.T, args ...string) result {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "--smoke", "--seed", "7", "--seconds", "1", "--out", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\nstderr:\n%s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(lines[0], `{"context":`) {
		t.Errorf("first line is not the run context: %s", lines[0])
	}
	return r
}

// TestSmoke runs every workload briefly, untraced and traced: each
// must check out correct (every value right, every invariant held) and
// print every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+traced, func(t *testing.T) {
				r := runSmoke(t, "--workload", w.Name, "--trace", traced)
				// failed counts refusals too, which a slow build (-race)
				// meets at the nominal rate; correct covers every check.
				if !r.Correct || r.Attempted < 1 || r.Failed > r.Attempted {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, name := range tracedNonZero[w.Name] {
					if traced == "1" && !(r.Metrics[name].Value > 0) {
						t.Errorf("%s = %v, want > 0: its spans did not join", name, r.Metrics[name].Value)
					}
				}
				if traced == "0" {
					for _, name := range []string{"setup_s", "p50_us", "p90_us", "max_rate_rps", "cpu_us_per_req", "live_heap_mb"} {
						if v := r.Metrics[name].Value; !(v > 0) {
							t.Errorf("%s = %v, want > 0", name, v)
						}
					}
				}
			})
		}
	}
}

// tracedNonZero names per-layer metrics each workload must exercise:
// each needs spans of one request to join across layers.
var tracedNonZero = map[string][]string{
	"submit-zipf": {"serve.submit_ns_p50", "serve.wait_us_p50", "serve.complete_us_p50", "serve.handler_us_p50"},
	"flow-fanout": {"pipe.hop_us_p50", "pipe.fanin_us_p50", "serve.complete_us_p50"},
	"flow-2node-tcp": {"cluster.remote_hop_us_p50", "cluster.ship_us_p50", "cluster.ship_at_admit_frac",
		"cluster.owned_locales", "wire.transit_us_p50", "wire.bytes_per_flow", "serve.complete_us_p50"},
}

// TestCalibrate checks the harness alone allocates nothing per request.
func TestCalibrate(t *testing.T) {
	r := runSmoke(t, "--workload", "calibrate")
	if !r.Correct {
		t.Fatal("calibration run not correct")
	}
	if a := r.Metrics["allocs_per_req"].Value; a > 0.01 {
		t.Errorf("harness allocates %.3f objects per request, want 0", a)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "submit-zipf", "--trace", "2"},
		{"--workload", "submit-zipf", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run %v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed a result: %s", args, out.String())
		}
	}
}

// TestAnalyzeJoins checks the span joins on a synthetic two-node flow:
// stage 0 shipped at admission, stage 1 local to it, stage 2 back on
// the origin.
func TestAnalyzeJoins(t *testing.T) {
	spans := []span{
		{kind: spanSubmit, id: 1, start: 100, end: 130, node: -1},
		{kind: spanSend, node: 0, method: methodStage, hash: 11, start: 110, end: 115},
		{kind: spanRecv, node: 1, method: methodStage, hash: 11, start: 160, end: 190},
		{kind: spanHandler, id: 1, stage: 0, elem: -1, node: 1, start: 200, end: 210},
		{kind: spanHandler, id: 1, stage: 1, elem: -1, node: 1, start: 230, end: 240},
		{kind: spanSend, node: 1, method: methodStage, hash: 22, start: 250, end: 252},
		{kind: spanRecv, node: 0, method: methodStage, hash: 22, start: 300, end: 320},
		{kind: spanHandler, id: 1, stage: 2, elem: -1, node: 0, start: 340, end: 350},
		{kind: spanReq, id: 1, start: 90, end: 400, node: -1},
	}
	lt := analyze(spans)
	check := func(name string, got []int64, want ...int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	check("hop", lt.hop, 20)
	check("remoteHop", lt.remoteHop, 100)
	check("ship", lt.ship, 10, 10)
	check("transit", lt.transit, 50, 50)
	check("complete", lt.complete, 50)
	if lt.shipped != 1 || lt.flows != 1 {
		t.Errorf("shipped %d of %d flows, want 1 of 1", lt.shipped, lt.flows)
	}
	if c := covered([][2]int64{{0, 10}, {5, 20}, {30, 40}}, 0, 35); c != 25 {
		t.Errorf("covered = %d, want 25", c)
	}
}

// slowTarget completes each request inline after a fixed busy time, so
// a generator asked for more than it can offer falls behind.
type slowTarget struct{ busy time.Duration }

func (slowTarget) prepare(*slot, *stats.RNG) {}
func (t slowTarget) submit(s *slot) error {
	for t0 := time.Now(); time.Since(t0) < t.busy; {
	}
	s.done(serve.Result{Status: serve.StatusOK, Value: s})
	return nil
}
func (slowTarget) check(s *slot, r serve.Result) bool { v, _ := r.Value.(*slot); return v == s }

// TestLatenessCharged checks that a request submitted late is timed
// from its due time: its latency covers the generator's lateness.
func TestLatenessCharged(t *testing.T) {
	h := newHarness(slowTarget{busy: 200 * time.Microsecond}, 3, nil)
	p := h.run(20000, 100*time.Millisecond, time.Second) // offers at most 5k/s
	if err := checkPhase("slow", p); err != nil {
		t.Fatal(err)
	}
	if p.endLag < float64(20*time.Millisecond) {
		t.Errorf("generator ended %v late, want it far behind", time.Duration(p.endLag))
	}
	for i, lag := range p.lag {
		if p.lat[i] < lag {
			t.Fatalf("request %d: latency %v below its lateness %v", i, time.Duration(p.lat[i]), time.Duration(lag))
		}
	}
}

// TestFanoutCheck checks that flow-fanout's check refuses a result
// delivered to another flow's callback.
func TestFanoutCheck(t *testing.T) {
	var a, b slot
	w := &fanoutWorkload{}
	if !w.check(&a, serve.Result{Status: serve.StatusOK, Value: &a}) {
		t.Error("own slot refused")
	}
	if w.check(&a, serve.Result{Status: serve.StatusOK, Value: &b}) || w.check(&a, serve.Result{Status: serve.StatusOK}) {
		t.Error("another flow's slot, or no value, accepted")
	}
}

// TestSpanSampling checks that a traced phase's span buffer stays within
// its budget, covers the phase by sampling whole requests, and keeps
// every request of a workload with wire spans.
func TestSpanSampling(t *testing.T) {
	for _, name := range []string{"submit-zipf", "flow-fanout", "flow-2node-tcp"} {
		w, _ := newWorkload(name)
		sp := w.spec()
		every, capacity := spanSampling(sp, 16*time.Second)
		need := sp.nominal * 16 * (sp.spans/float64(every) + sp.wireSpans)
		if capacity > spanBudget+4096 || float64(capacity) < need {
			t.Errorf("%s: capacity %d for %.0f spans, budget %d", name, capacity, need, spanBudget)
		}
		if sp.wireSpans > 0 && every != 1 {
			t.Errorf("%s: wire workload samples every %d-th request", name, every)
		}
	}
	tr := newTracer(16, 4)
	tr.on.Store(true)
	for id := uint64(0); id < 8; id++ {
		tr.add(span{kind: spanHandler, id: id})
	}
	tr.add(span{kind: spanSend, id: 1})
	if got, _ := tr.recorded(); len(got) != 3 {
		t.Errorf("recorded %d spans, want requests 0 and 4 plus the wire span", len(got))
	}
}

// TestLadderLimitsStated checks that each workload's entry in
// BENCHMARK.json states the p90 limit its ladder applies.
func TestLadderLimitsStated(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		wl, err := newWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		ms := strconv.FormatFloat(float64(wl.spec().limit)/float64(time.Millisecond), 'f', -1, 64)
		if want := "p90 limit " + ms + " ms"; !strings.HasSuffix(w.Why, want) {
			t.Errorf("%s: why %q does not end in %q", w.Name, w.Why, want)
		}
	}
}

// TestQuietWindows checks which windows the end-to-end metrics come
// from: the least-stolen half, only unstolen ones when fewer than half
// saw no steal, and at least a quarter, whatever their latencies; and
// that a latency quantile is the median of the chosen windows' own.
func TestQuietWindows(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int
	}{
		{[]float64{0.1, 0, 0.2, 0.05, 0, 0.3, 0, 0.02}, []int{1, 4, 6}},
		{[]float64{0, 0, 0, 0, 0, 0, 0, 0}, []int{0, 3, 6, 1}}, // ties ranked 11·i mod 8
		{[]float64{0.1, 0.2, 0.3, 0.4, 0.05, 0.15, 0.25, 0.35}, []int{4, 0}},
	} {
		var ws []windowStat
		for i := range c.steal {
			l := float64(1000 * (i + 1))
			ws = append(ws, windowStat{ok: 10, cpuNS: 1 << i, stealFrac: c.steal[i], p50: l, p90: 2 * l})
		}
		var want windowStat
		var p50s []float64
		for _, i := range c.want {
			want.ok += 10
			want.cpuNS += 1 << i
			want.stealFrac += c.steal[i] / float64(len(c.want))
			p50s = append(p50s, ws[i].p50)
		}
		slices.Sort(p50s)
		want.p50 = stats.Quantile(p50s, 0.5)
		q, n := quiet(ws)
		if n != len(c.want) || q.ok != want.ok || q.cpuNS != want.cpuNS || math.Abs(q.stealFrac-want.stealFrac) > 1e-12 ||
			q.p50 != want.p50 || q.p90 != 2*want.p50 {
			t.Errorf("steal %v: quiet = %d windows, ok %d cpu %b steal %v p50 %v p90 %v; want windows %v (p50 %v)",
				c.steal, n, q.ok, q.cpuNS, q.stealFrac, q.p50, q.p90, c.want, want.p50)
		}
	}
}

// TestStaircase checks that the ladder's staircase homes in on the
// knee from its start and reports the rungs it settles between.
func TestStaircase(t *testing.T) {
	var probed []int
	rungs, err := staircase(10, func(k int) (bool, error) {
		probed = append(probed, k)
		return k <= 30, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{28, 44, 36, 32, 30, 31, 30, 31, 30, 31}; !slices.Equal(probed, want) {
		t.Errorf("probed %v, want %v", probed, want)
	}
	if want := []float64{31, 30, 31, 30, 31, 30}; !slices.Equal(rungs, want) {
		t.Errorf("rungs %v, want %v", rungs, want)
	}
}
