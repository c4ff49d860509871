package main

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/serve"
	"repro/internal/stats"
)

// The open-loop generator. One goroutine walks a seeded Poisson
// schedule and hands each request to the target the moment it is due,
// never waiting for earlier requests to finish. Latency is measured
// from the due time, so a stall in the program (or in the generator)
// is charged to every request it delays.
//
// Pacing cannot spin and cannot use time.Sleep, whose wakeups land on
// the runtime's millisecond poller tick. The generator instead locks
// its OS thread, drops that thread's kernel timer slack to 1 ns and
// sleeps with nanosleep, aiming early by a running estimate of the
// wakeup overshoot (about 7 µs on a 2-vCPU Xeon VM, against 60 µs
// with the default 50 µs slack).

var epoch = time.Now()

// now is the harness clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

const prSetTimerSlack = 29 // prctl(2) PR_SET_TIMERSLACK

// slotBits sizes the ring of request records. A record is reused
// 1<<slotBits requests later; a record still in flight then means the
// program holds that many requests, and the new one is refused at the
// generator (counted as backlog).
const slotBits = 16

// slot is the harness-side record of one in-flight request. Records
// are allocated once, each with its completion callback bound, so the
// steady-state request path allocates nothing on the harness side.
type slot struct {
	id    uint64
	due   int64 // schedule time, or the submit time when that was earlier
	key   uint64
	ten   int32
	state atomic.Uint32 // slotFree, slotBusy, slotDone
	got   uint64        // answer written by the handler (submit-zipf)
	elems [fanWidth]elem
	done  func(serve.Result)
}

const (
	slotFree uint32 = iota
	slotBusy
	slotDone
)

// elem is one fan-out element payload of a flow-fanout request.
type elem struct {
	s   *slot
	idx int
}

// target is one workload as the generator sees it.
type target interface {
	// prepare fills the request inputs of s from the schedule's RNG.
	prepare(s *slot, rng *stats.RNG)
	// submit hands s to the program. An error is a refusal.
	submit(s *slot) error
	// check reports whether an OK result carries the right value.
	check(s *slot, r serve.Result) bool
}

// phaseStats is what one phase of the schedule measured.
type phaseStats struct {
	offered, ok, rejected, shed, failed int64
	wrong, double, missing, backlog     int64
	lat                                 []int64 // per request, due → callback; -1 when not OK
	lag                                 []int64 // per request, due → submit entry
	submitNS, waitNS                    []int64 // traced: submit call, Result.Wait
	outMid, outEnd                      int64   // outstanding at mid-window and at window end
	endLag                              float64 // median lateness over the phase's last window, ns
	marks                               []mark  // window boundaries, then the drained end
	cpuNS                               int64   // process CPU over the phase less genCPU
	genCPU                              int64   // generator thread CPU outside submit calls
	allocs, allocBytes, gcCycles        uint64
	gcPauses                            []float64 // seconds, runtime/metrics histogram delta
}

// errs is every request that did not come back OK with the right value.
func (p *phaseStats) errs() int64 {
	return p.rejected + p.shed + p.failed + p.wrong + p.double + p.missing + p.backlog
}

// harness owns the slot ring, the schedule RNG and the counters the
// completion callbacks update.
type harness struct {
	t     target
	rng   *stats.RNG
	slots []slot
	next  uint64  // next request id
	tr    *tracer // nil in untraced runs

	// Per-phase state the callbacks write; reset by run.
	base uint64 // first id of the phase
	// Written by the callbacks, atomically: a request past the drain
	// deadline may still complete while the phase's readings are copied.
	lat, waitNS                            []atomic.Int64
	ok, rejected, shed, failed, wrong, dbl atomic.Int64
	outstanding                            atomic.Int64

	overshoot float64 // EWMA of nanosleep overshoot, ns
}

func newHarness(t target, seed uint64, tr *tracer) *harness {
	h := &harness{t: t, rng: stats.NewRNG(seed), tr: tr, overshoot: 7000}
	h.slots = make([]slot, 1<<slotBits)
	for i := range h.slots {
		s := &h.slots[i]
		for j := range s.elems {
			s.elems[j] = elem{s: s, idx: j}
		}
		s.done = func(r serve.Result) { h.complete(s, r) }
	}
	return h
}

// bytes is the harness's own fixed heap footprint, excluded from the
// program's live heap.
func (h *harness) bytes() int64 {
	return int64(cap(h.slots))*int64(unsafe.Sizeof(slot{})) + int64(cap(h.lat)+cap(h.waitNS))*8
}

// complete is every request's result callback.
func (h *harness) complete(s *slot, r serve.Result) {
	t := now()
	if !s.state.CompareAndSwap(slotBusy, slotDone) {
		h.dbl.Add(1)
		return
	}
	i := s.id - h.base
	switch {
	case r.Status == serve.StatusOK && h.t.check(s, r):
		h.ok.Add(1)
		if i < uint64(len(h.lat)) {
			h.lat[i].Store(t - s.due)
			if h.tr.isOn() {
				h.waitNS[i].Store(int64(r.Wait))
				h.tr.add(span{kind: spanReq, id: s.id, start: s.due, end: t, node: -1, stage: -1, elem: -1})
			}
		}
	case r.Status == serve.StatusOK:
		h.wrong.Add(1)
	case r.Status == serve.StatusRejected:
		h.rejected.Add(1)
	case r.Status == serve.StatusShed:
		h.shed.Add(1)
	default:
		h.failed.Add(1)
	}
	h.outstanding.Add(-1)
}

// maxOvershoot caps how early the generator aims. A request submitted
// early is timed from its submission instead of its due time.
const maxOvershoot = 15e3

// maxSleep bounds one nanosleep. The runtime's preemption signal cuts a
// sleep short anyway; the bound keeps a stop-the-world from waiting on
// a sleeping generator for long should a signal be missed.
const maxSleep = 200 * time.Microsecond

// sleepUntil parks the generator's thread until about due, aiming early
// by the measured overshoot; it never spins. The sleep is a raw
// syscall: the generator keeps its own P (main raises GOMAXPROCS by one
// for it), so waking never queues behind the program's goroutines for
// a P, and the program keeps nproc Ps to itself.
func (h *harness) sleepUntil(due int64) {
	for {
		d := due - now() - int64(h.overshoot)
		if d <= 0 {
			return
		}
		d = min(d, int64(maxSleep))
		t0 := now()
		ts := syscall.NsecToTimespec(d)
		_, _, errno := syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
		if errno != 0 {
			continue // EINTR: the runtime's preemption signal; re-aim
		}
		// A stall (the thread descheduled) is not overshoot: only small
		// samples feed the estimate, which stays within maxOvershoot.
		if over := float64(now() - t0 - d); over >= 0 && over < 2*maxOvershoot {
			h.overshoot = min(h.overshoot+(over-h.overshoot)/16, maxOvershoot)
		}
	}
}

// run drives the target at rate for window, then waits up to drain for
// the stragglers. Requests still outstanding then count as missing.
func (h *harness) run(rate float64, window, drain time.Duration) *phaseStats {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: pacing is only coarser without it

	n := int(rate*window.Seconds()*1.25) + 1024
	if cap(h.lat) < n {
		h.lat = make([]atomic.Int64, n)
		if h.tr != nil {
			h.waitNS = make([]atomic.Int64, n)
		}
	}
	h.lat = h.lat[:n]
	for i := range h.lat {
		h.lat[i].Store(-1)
	}
	traced := h.tr.isOn()
	lag := make([]int64, 0, n)
	var submitNS []int64
	if traced {
		submitNS = make([]int64, 0, n)
	}
	h.ok.Store(0)
	h.rejected.Store(0)
	h.shed.Store(0)
	h.failed.Store(0)
	h.wrong.Store(0)
	h.dbl.Store(0)
	h.base = h.next

	p := &phaseStats{}
	before := readRuntime()
	// The program's CPU is the process's less what the generator thread
	// spends outside submit calls: pacing, sleeping and bookkeeping.
	// Submit calls run program code on the generator thread, so they
	// count as the program's.
	gen0, inSubmit := threadCPU(), int64(0)
	genCPU := func() int64 { return threadCPU() - gen0 - inSubmit }
	cpu0 := cpuNS()
	mean := float64(time.Second) / rate
	start := now()
	end := start + int64(window)
	mid := start + int64(window)/2
	midTaken := false
	p.marks = append(p.marks, mark{0, cpu0, before.allocs, hostSteal()})
	due := start
	for {
		due += int64(h.rng.ExpFloat64() * mean)
		if due >= end || p.offered >= int64(n) {
			break
		}
		if !midTaken && due >= mid {
			p.outMid, midTaken = h.outstanding.Load(), true
		}
		if k := len(p.marks); k < windows && due >= start+int64(k)*int64(window)/windows {
			p.marks = append(p.marks, mark{int(p.offered), cpuNS() - genCPU(), readRuntime().allocs, hostSteal()})
		}
		h.sleepUntil(due)
		id := h.next
		h.next++
		s := &h.slots[id&(1<<slotBits-1)]
		p.offered++
		if s.state.Load() == slotBusy {
			p.backlog++ // record still in flight 1<<slotBits requests later
			continue
		}
		h.t.prepare(s, h.rng)
		t0 := now()
		// Aiming early can submit before the due time; being late never
		// moves it, so the generator's own lateness is charged too.
		s.id, s.due = id, min(due, t0)
		s.state.Store(slotBusy)
		h.outstanding.Add(1)
		lag = append(lag, t0-due)
		c0 := threadCPU()
		err := h.t.submit(s)
		inSubmit += threadCPU() - c0
		if traced {
			t1 := now()
			submitNS = append(submitNS, t1-t0)
			h.tr.add(span{kind: spanSubmit, id: id, start: t0, end: t1, node: -1, stage: -1, elem: -1})
		}
		if err != nil && s.state.CompareAndSwap(slotBusy, slotFree) {
			p.rejected++
			h.outstanding.Add(-1)
		}
	}
	p.outEnd = h.outstanding.Load()
	deadline := time.Now().Add(drain)
	for h.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	p.genCPU = genCPU()
	p.cpuNS = cpuNS() - cpu0 - p.genCPU
	after := readRuntime()
	p.marks = append(p.marks, mark{int(p.offered), cpu0 + p.cpuNS, after.allocs, hostSteal()})
	p.allocs = after.allocs - before.allocs
	p.allocBytes = after.allocBytes - before.allocBytes
	p.gcCycles = after.gcCycles - before.gcCycles
	p.gcPauses = pauseDelta(before, after)

	p.ok = h.ok.Load()
	p.rejected += h.rejected.Load()
	p.shed = h.shed.Load()
	p.failed = h.failed.Load()
	p.wrong = h.wrong.Load()
	p.double = h.dbl.Load()
	p.missing = h.outstanding.Load()
	p.lat = load(h.lat[:min(int(p.offered), len(h.lat))])
	p.lag, p.submitNS = lag, submitNS
	p.endLag = quantileNS(lag[len(lag)-len(lag)/windows:], 0.5)
	if traced {
		p.waitNS = load(h.waitNS[:min(int(p.offered), len(h.waitNS))])
	}
	return p
}

// windows is how many equal windows a phase's schedule is cut into.
// Each window records the host's steal time, so the end-to-end metrics
// can be read from the windows the hypervisor disturbed least (see
// quiet).
const windows = 24

// mark is the generator's reading at a window boundary: requests
// offered so far, the program's CPU and allocations.
type mark struct {
	idx    int
	cpuNS  int64
	allocs uint64
	steal  steal
}

// windowStat is one window's end-to-end reading.
type windowStat struct {
	p50, p90, cpuPerOK, allocsPerOK float64
	lagP90, stealFrac               float64
	ok                              int // requests due in it that came back OK
	cpuNS                           int64
	allocs                          uint64
}

// windowStats reads each window of a phase: latency quantiles of the
// requests due in it, and CPU and allocations between its boundaries
// per request that came back OK. The last window runs to the drained
// end of the phase.
func (p *phaseStats) windowStats() []windowStat {
	var out []windowStat
	for i := 0; i+1 < len(p.marks); i++ {
		a, b := p.marks[i], p.marks[i+1]
		lat := p.lat[a.idx:min(b.idx, len(p.lat))]
		ok := 0
		for _, v := range lat {
			if v >= 0 {
				ok++
			}
		}
		okf := float64(max(ok, 1))
		out = append(out, windowStat{
			ok: ok, cpuNS: b.cpuNS - a.cpuNS, allocs: b.allocs - a.allocs,
			p50:         latencyQuantile(lat, 0.5),
			p90:         latencyQuantile(lat, 0.9),
			cpuPerOK:    float64(b.cpuNS-a.cpuNS) / okf,
			allocsPerOK: float64(b.allocs-a.allocs) / okf,
			lagP90:      quantileNS(p.lag[min(a.idx, len(p.lag)):min(b.idx, len(p.lag))], 0.9),
			stealFrac:   b.steal.frac(a.steal),
		})
	}
	return out
}

// quiet reads the end-to-end metrics from the windows (of every child
// process, in order) with the least host steal: each latency quantile
// is the median over them of the window's own quantile, and CPU and
// allocations are per OK request across them. It takes the half of the
// windows with the least steal, or only those that saw none when fewer
// than half did, but at least a quarter. On a virtual machine the
// hypervisor takes its CPUs away now and then (2–25% of the time on the
// 2-vCPU VM this was built on, for minutes at a time); a stolen CPU
// freezes the generator and the program alike, and p90 moved up to
// tenfold with it, in every window that saw 10% steal or more. The
// choice depends only on the steal counter, never on the latencies;
// windows with equal steal are taken in an order spread over the phases
// (window i of n ranks 11·i mod n), so no part of a phase and no
// process is favoured. A stall the steal counter does not see (a wakeup
// delayed on the host, a GC pause) still lands in some windows; the
// median over windows lets it move a window's quantile, not the run's,
// where pooling the windows' requests let one window with a millisecond
// stall lift flow-fanout's p90 by a fifth. stealFrac reports what the
// chosen windows still saw; n is how many were chosen.
func quiet(ws []windowStat) (q windowStat, n int) {
	idx := make([]int, len(ws))
	unstolen := 0
	for i := range idx {
		idx[i] = i
		if ws[i].stealFrac == 0 {
			unstolen++
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(ws[a].stealFrac, ws[b].stealFrac), cmp.Compare(a*11%len(ws), b*11%len(ws)), cmp.Compare(a, b))
	})
	sel := make([]windowStat, max(1, min(max(unstolen, len(ws)/4), len(ws)/2)))
	for i := range sel {
		sel[i] = ws[idx[i]]
	}
	for _, w := range sel {
		q.ok += w.ok
		q.cpuNS += w.cpuNS
		q.allocs += w.allocs
		q.stealFrac += w.stealFrac / float64(len(sel))
	}
	okf := float64(max(q.ok, 1))
	q.p50 = medianOf(sel, func(w windowStat) float64 { return w.p50 })
	q.p90 = medianOf(sel, func(w windowStat) float64 { return w.p90 })
	q.cpuPerOK, q.allocsPerOK = float64(q.cpuNS)/okf, float64(q.allocs)/okf
	return q, len(sel)
}

// medianOf is the median of f over the windows.
func medianOf(ws []windowStat, f func(windowStat) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	slices.Sort(xs)
	return stats.Quantile(xs, 0.5)
}

// load copies the callbacks' readings out; the harness reuses the
// slice in the next phase.
func load(xs []atomic.Int64) []int64 {
	out := make([]int64, len(xs))
	for i := range xs {
		out[i] = xs[i].Load()
	}
	return out
}

// settle waits for every outstanding request of earlier phases, so one
// phase's backlog never spills into the next. It reports whether the
// program drained in time.
func (h *harness) settle(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for h.outstanding.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// latencyQuantile returns the q-quantile of the phase's latencies in
// ns, counting a request that did not come back OK as infinitely late.
func latencyQuantile(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return math.Inf(1)
	}
	xs := make([]float64, len(lat))
	for i, v := range lat {
		if v < 0 {
			xs[i] = math.Inf(1)
		} else {
			xs[i] = float64(v)
		}
	}
	slices.Sort(xs)
	return stats.Quantile(xs, q)
}

// quantileNS is latencyQuantile for samples that are all present.
func quantileNS(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	fs := make([]float64, len(xs))
	for i, v := range xs {
		fs[i] = float64(v)
	}
	slices.Sort(fs)
	return stats.Quantile(fs, q)
}

// cpuNS is the process's user+sys CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// stealFrac is the share of the phase's time the host stole.
func (p *phaseStats) stealFrac() float64 {
	return p.marks[len(p.marks)-1].steal.frac(p.marks[0].steal)
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from clock_gettime(2).
const clockThreadCPUTime = 3

// threadCPU is the calling thread's CPU time; the generator's thread is
// locked, so it reads the generator's own.
func threadCPU() int64 {
	var ts syscall.Timespec
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
