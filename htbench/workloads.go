package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/netparcel"
	"repro/internal/litlx"
	"repro/internal/mem"
	"repro/internal/parcel"
	"repro/internal/serve"
	"repro/internal/spinwork"
	"repro/internal/stats"
)

// spinUnits is every handler's fixed cost (about 2 µs of spinwork).
const spinUnits = 4

// fanWidth is flow-fanout's Map width.
const fanWidth = 4

// workload is one benchmark workload: a program booted in this process
// plus the generator's view of it.
type workload interface {
	target
	// spec returns the workload's fixed shape.
	spec() spec
	// setup boots, joins and registers the program and warms it with a
	// fixed request count. tr is nil in untraced runs.
	setup(seed uint64, tr *tracer) error
	// counters snapshots the program's own counters.
	counters() counters
	// invariants checks the program's accounting once it has drained.
	invariants() error
	close()
}

// spec is what the harness needs to drive a workload.
type spec struct {
	nominal float64       // requests (or flows) per second
	limit   time.Duration // p90 limit a ladder rung must meet
	// Spans a traced request records: keyed by request id, and wire
	// spans (keyed by body hash), an upper estimate.
	spans, wireSpans float64
}

// counters indexes the program counters the per-layer metrics
// difference across a phase. Counters a workload lacks stay zero.
type counters [nCounters]int64

const (
	cAccepted = iota
	cRejected
	cShed
	cBatches
	cDataStaged
	cStealLocal
	cStealRemote
	cMigrations
	cReads
	cWrites
	cRemoteReads
	cRemoteWrites
	cForwarded
	cRemoteStages
	cRecovered
	cStale
	cBytesSent
	cParcelsSent
	nCounters
)

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) add(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "submit-zipf":
		return &zipfWorkload{}, nil
	case "flow-fanout":
		return &fanoutWorkload{}, nil
	case "flow-2node-tcp":
		return &tcpWorkload{}, nil
	case "calibrate":
		return noopWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want submit-zipf, flow-fanout, flow-2node-tcp or calibrate)", name)
}

// serverCounters reads one litlx system and serve server.
func serverCounters(sys *litlx.System, srv *serve.Server) counters {
	st := srv.Stats()
	sp := sys.Space.Stats()
	var c counters
	c[cAccepted], c[cRejected], c[cShed] = st.Accepted, st.Rejected, st.Shed
	c[cBatches], c[cDataStaged] = st.Batches, st.DataStaged
	c[cStealLocal] = sys.Mon.Counter("core.steal.local").Value()
	c[cStealRemote] = sys.Mon.Counter("core.steal.remote").Value()
	c[cMigrations] = sys.Mon.Counter("core.migrations").Value()
	c[cReads], c[cWrites] = sp.Reads, sp.Writes
	c[cRemoteReads], c[cRemoteWrites] = sp.RemoteReads, sp.RemoteWrites
	return c
}

// serveInvariants checks one drained server: every admitted job
// resolved, and every admitted flow reached exactly one terminal count.
func serveInvariants(who string, srv *serve.Server) error {
	st := srv.Stats()
	if in := st.InFlight(); in != 0 {
		return fmt.Errorf("%s: serve holds %d jobs after drain (accepted %d, done %d, shed %d)",
			who, in, st.Accepted, st.Done, st.Shed)
	}
	f := st.Flow
	if f.Submitted != f.Completed+f.Shed+f.Failed+f.Rejected {
		return fmt.Errorf("%s: serve flows submitted %d != completed %d + shed %d + failed %d + rejected %d",
			who, f.Submitted, f.Completed, f.Shed, f.Failed, f.Rejected)
	}
	return nil
}

// warm drives n requests through submit, at most window in flight,
// and fails on any result that is not OK. It is the fixed-count
// warm-up every setup ends with.
func warm(n, window int, submit func(i int, done func(serve.Result)) error) error {
	sem := make(chan struct{}, window)
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		err := submit(i, func(r serve.Result) {
			if r.Status != serve.StatusOK {
				errc <- fmt.Errorf("warm-up request %s: %v", r.Status, r.Err)
			}
			<-sem
		})
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
	}
	for i := 0; i < window; i++ {
		sem <- struct{}{}
	}
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// mix64 is the splitmix64 finalizer: the per-key answers and the
// cluster stage re-keying.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// --- submit-zipf -----------------------------------------------------

const (
	zipfTenants = 64
	zipfKeys    = 4096
)

// zipfWorkload is one serve.Server with 64 tenants of plain submits.
type zipfWorkload struct {
	sys     *litlx.System
	srv     *serve.Server
	tenants []*serve.Tenant
	cdf     []float64
}

func (w *zipfWorkload) spec() spec {
	return spec{nominal: 40000, limit: 500 * time.Microsecond, spans: 3}
}

// zipfAnswer is the value the tenant ti's handler computes for key.
func zipfAnswer(ti int32, key uint64) uint64 { return mix64(uint64(ti)<<32 ^ key) }

func (w *zipfWorkload) setup(seed uint64, tr *tracer) error {
	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 2, Seed: seed})
	if err != nil {
		return err
	}
	w.sys = sys
	w.srv = serve.New(sys, serve.Config{Shards: 8, QueueDepth: 1024})
	w.tenants = make([]*serve.Tenant, zipfTenants)
	for i := range w.tenants {
		ti := int32(i)
		h := func(_ *serve.Ctx, req serve.Request) (any, error) {
			s := req.Payload.(*slot)
			t0 := tr.now()
			spinwork.Work(spinUnits)
			s.got = zipfAnswer(ti, req.Key)
			tr.handler(s.id, 0, -1, -1, t0)
			return s, nil
		}
		t, err := w.srv.RegisterTenant(serve.TenantConfig{Name: fmt.Sprintf("t%02d", i), Handler: h})
		if err != nil {
			return err
		}
		w.tenants[i] = t
	}
	// Zipf(1.0) over tenants: P(i) ∝ 1/(i+1).
	w.cdf = make([]float64, zipfTenants)
	var sum float64
	for i := range w.cdf {
		sum += 1 / float64(i+1)
		w.cdf[i] = sum
	}
	for i := range w.cdf {
		w.cdf[i] /= sum
	}
	warmSlots := make([]slot, 4096)
	return warm(len(warmSlots), 64, func(i int, done func(serve.Result)) error {
		return w.tenants[i%zipfTenants].SubmitFunc(serve.Request{Key: uint64(i), Payload: &warmSlots[i]}, done)
	})
}

func (w *zipfWorkload) prepare(s *slot, rng *stats.RNG) {
	s.ten = int32(sort.SearchFloat64s(w.cdf, rng.Float64()))
	if s.ten >= zipfTenants {
		s.ten = zipfTenants - 1
	}
	s.key = rng.Uint64() % zipfKeys
}

func (w *zipfWorkload) submit(s *slot) error {
	return w.tenants[s.ten].SubmitFunc(serve.Request{Key: s.key, Payload: s}, s.done)
}

func (w *zipfWorkload) check(s *slot, r serve.Result) bool {
	v, _ := r.Value.(*slot)
	return v == s && s.got == zipfAnswer(s.ten, s.key)
}

func (w *zipfWorkload) counters() counters { return serverCounters(w.sys, w.srv) }

func (w *zipfWorkload) invariants() error {
	if err := serveInvariants("submit-zipf", w.srv); err != nil {
		return err
	}
	if st := w.srv.Stats(); st.Failed != 0 {
		return fmt.Errorf("submit-zipf: %d handler failures", st.Failed)
	}
	return nil
}

func (w *zipfWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.sys != nil {
		w.sys.Close()
	}
}

// --- flow-fanout -----------------------------------------------------

// fanoutWorkload is htserved's -pipeline shape on one server: parse →
// enrich (Map, width 4, element working sets on locale 1) → aggregate
// (writes a locale-0 object), every stage routed by its working set
// and batches staged into the dispatcher's locale.
type fanoutWorkload struct {
	sys *litlx.System
	srv *serve.Server
	tn  *serve.Tenant
	pl  *serve.Pipeline
}

func (w *fanoutWorkload) spec() spec {
	return spec{nominal: 8000, limit: 5 * time.Millisecond, spans: 3 + fanWidth + 1}
}

func (w *fanoutWorkload) setup(seed uint64, tr *tracer) error {
	sys, err := litlx.New(litlx.Config{Locales: 2, WorkersPerLocale: 2, Seed: seed})
	if err != nil {
		return err
	}
	w.sys = sys
	w.srv = serve.New(sys, serve.Config{Shards: 8, QueueDepth: 1024,
		Data: serve.DataConfig{LocalityRoute: true, Stage: true}})
	specs := make([]serve.DataObject, fanWidth+2)
	specs[0] = serve.DataObject{Size: 2048, Home: 0}
	for j := 1; j <= fanWidth; j++ {
		specs[j] = serve.DataObject{Size: 2048, Home: 1}
	}
	specs[fanWidth+1] = serve.DataObject{Size: 512, Home: 0}
	w.tn, err = w.srv.RegisterTenant(serve.TenantConfig{
		Name:    "flows",
		Handler: func(_ *serve.Ctx, req serve.Request) (any, error) { return req.Payload, nil },
		Objects: specs,
	})
	if err != nil {
		return err
	}
	objs := w.tn.Objects()
	doc, elems, result := objs[0:1], objs[1:fanWidth+1], objs[fanWidth+1:fanWidth+2]
	w.pl, err = w.tn.NewPipeline("fan",
		serve.Stage{Name: "parse",
			WorkingSet: func(any) []mem.ObjID { return doc },
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				s := req.Payload.(*slot)
				t0 := tr.now()
				spinwork.Work(spinUnits)
				parts := make([]any, fanWidth)
				for i := range parts {
					parts[i] = &s.elems[i]
				}
				tr.handler(s.id, 0, -1, -1, t0)
				return parts, nil
			}},
		serve.Stage{Name: "enrich", Map: true,
			Key:        func(v any) uint64 { return uint64(v.(*elem).idx) },
			WorkingSet: func(v any) []mem.ObjID { i := v.(*elem).idx; return elems[i : i+1] },
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				e := req.Payload.(*elem)
				t0 := tr.now()
				spinwork.Work(spinUnits)
				tr.handler(e.s.id, 1, int8(e.idx), -1, t0)
				return e, nil
			}},
		// aggregate answers with the flow's own slot when it got all
		// fanWidth elements of that flow, in order, and nil otherwise.
		serve.Stage{Name: "aggregate",
			WorkingSet: func(any) []mem.ObjID { return result },
			WriteSet:   func(any) []mem.ObjID { return result },
			Handler: func(_ *serve.Ctx, req serve.Request) (any, error) {
				parts := req.Payload.([]any)
				t0 := tr.now()
				spinwork.Work(spinUnits)
				if len(parts) != fanWidth {
					return nil, nil
				}
				s := parts[0].(*elem).s
				for i, p := range parts {
					if e := p.(*elem); e.s != s || e.idx != i {
						return nil, nil
					}
				}
				tr.handler(s.id, 2, -1, -1, t0)
				return s, nil
			}},
	)
	if err != nil {
		return err
	}
	warmSlots := make([]slot, 2048)
	for i := range warmSlots {
		for j := range warmSlots[i].elems {
			warmSlots[i].elems[j] = elem{s: &warmSlots[i], idx: j}
		}
	}
	return warm(len(warmSlots), 64, func(i int, done func(serve.Result)) error {
		_, err := w.tn.SubmitFlowFunc(w.pl, serve.Request{Key: uint64(i), Payload: &warmSlots[i]}, done)
		return err
	})
}

func (w *fanoutWorkload) prepare(s *slot, rng *stats.RNG) { s.key = rng.Uint64() }

func (w *fanoutWorkload) submit(s *slot) error {
	_, err := w.tn.SubmitFlowFunc(w.pl, serve.Request{Key: s.key, Payload: s}, s.done)
	return err
}

func (w *fanoutWorkload) check(s *slot, r serve.Result) bool {
	v, _ := r.Value.(*slot)
	return v == s
}

func (w *fanoutWorkload) counters() counters { return serverCounters(w.sys, w.srv) }

func (w *fanoutWorkload) invariants() error { return serveInvariants("flow-fanout", w.srv) }

func (w *fanoutWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
	if w.sys != nil {
		w.sys.Close()
	}
}

// --- flow-2node-tcp --------------------------------------------------

const (
	tcpLocales = 32
	tcpStages  = 3
)

// tcpNodeIDs are the README quickstart's node ids. The ring places one
// cut per member, so these ids split the 32 locales 3/29 and about 90%
// of flows ship at admission. They are kept, not chosen for balance;
// cluster.owned_locales reports the split.
var tcpNodeIDs = [2]parcel.NodeID{"ht@127.0.0.1:7101", "ht@127.0.0.1:7102"}

// tcpWorkload is two cluster nodes in this process on the netparcel
// TCP transport over 127.0.0.1, running htserved's cluster demo
// pipeline: ingest → transform → emit, stages 2–3 re-keyed by value.
type tcpWorkload struct {
	nodes [2]*cluster.Node
	pipe  *cluster.Pipeline // on the origin node, tcpNodeIDs[0]
	base  int               // seeded payload offset
}

func (w *tcpWorkload) spec() spec {
	return spec{nominal: 800, limit: 20 * time.Millisecond, spans: 2 + tcpStages, wireSpans: 8}
}

func (w *tcpWorkload) setup(seed uint64, tr *tracer) error {
	w.base = int(seed%1_000_003) * 1_000_000
	pipes := [2]*cluster.Pipeline{}
	for i, id := range tcpNodeIDs {
		raw, err := netparcel.Listen(id, "127.0.0.1:0", netparcel.Config{})
		if err != nil {
			return fmt.Errorf("listen %s: %w", id, err)
		}
		var t parcel.Transport = raw
		if tr != nil {
			t = &tracedTransport{Transport: raw, tr: tr, node: int8(i)}
		}
		n, err := cluster.NewNode(cluster.Config{
			Transport: t,
			System:    litlx.Config{Locales: tcpLocales, WorkersPerLocale: 1, Seed: seed},
			Serve:     serve.Config{Shards: 8, QueueDepth: 256},
			Detect:    cluster.DetectConfig{Every: 250 * time.Millisecond, Misses: 3},
			Recover:   cluster.RecoverConfig{FlowTimeout: 5 * time.Second},
		})
		if err != nil {
			_ = raw.Close()
			return err
		}
		w.nodes[i] = n
		if pipes[i], err = registerDemo(n, int8(i), w.base, tr); err != nil {
			return err
		}
	}
	w.pipe = pipes[0]
	if err := w.nodes[1].Join(w.nodes[0].Transport().Addr()); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(w.nodes[0].Members()) < 2 || len(w.nodes[1].Members()) < 2 {
		if time.Now().After(deadline) {
			return errors.New("cluster did not reach 2 members")
		}
		time.Sleep(time.Millisecond)
	}
	// Payloads 0..1023 touch every global on both nodes, so the code
	// image and all 32 blocks are resident before measuring.
	return warm(1024, 16, func(i int, done func(serve.Result)) error {
		return w.pipe.SubmitFunc(serve.Request{Key: mix64(uint64(i)), Payload: i}, done)
	})
}

// registerDemo installs htserved's cluster demo tenant and pipeline on
// one node: a 64 KB code image, one 4 KB global per locale, and three
// stages that each add one to the payload, which starts at base plus
// the request id.
func registerDemo(n *cluster.Node, node int8, base int, tr *tracer) (*cluster.Pipeline, error) {
	stage := func(k int8) serve.Handler {
		return func(_ *serve.Ctx, req serve.Request) (any, error) {
			t0 := tr.now()
			spinwork.Work(spinUnits)
			v := req.Payload.(int)
			tr.handler(uint64(v-base-int(k)), k, -1, node, t0)
			return v + 1, nil
		}
	}
	globals := make([]cluster.GlobalObject, tcpLocales)
	for i := range globals {
		globals[i] = cluster.GlobalObject{Name: fmt.Sprintf("block%d", i), Size: 4 << 10, Home: i}
	}
	t, err := n.RegisterTenant(cluster.TenantConfig{
		Serve:   serve.TenantConfig{Name: "demo", Handler: stage(0), CodeSize: 64 << 10},
		Globals: globals,
	})
	if err != nil {
		return nil, err
	}
	blocks := make([][]string, tcpLocales)
	for i := range blocks {
		blocks[i] = []string{globals[i].Name}
	}
	rekey := func(v any) (uint64, []string) {
		x, _ := v.(int)
		return mix64(uint64(x)), blocks[x%tcpLocales]
	}
	stages := make([]serve.Stage, tcpStages)
	for k := range stages {
		stages[k] = serve.Stage{Name: [tcpStages]string{"ingest", "transform", "emit"}[k], Handler: stage(int8(k))}
	}
	return t.NewPipeline(cluster.PipelineConfig{
		Name: "demo3", Stages: stages, Routes: []cluster.StageRoute{nil, rekey, rekey},
	})
}

func (w *tcpWorkload) prepare(s *slot, rng *stats.RNG) { s.key = rng.Uint64() }

// payload is the request id as the flow carries it; the stage handlers
// recover the id as payload - base - stage.
func (w *tcpWorkload) payload(s *slot) int { return w.base + int(s.id) }

func (w *tcpWorkload) submit(s *slot) error {
	return w.pipe.SubmitFunc(serve.Request{Key: s.key, Payload: w.payload(s)}, s.done)
}

func (w *tcpWorkload) check(s *slot, r serve.Result) bool {
	v, ok := r.Value.(int)
	return ok && v == w.payload(s)+tcpStages
}

func (w *tcpWorkload) counters() counters {
	var c counters
	for _, n := range w.nodes {
		st := n.Stats()
		c = c.add(serverCounters(n.System(), n.Serve()))
		c[cForwarded] += st.ForwardedStages
		c[cRemoteStages] += st.RemoteStages
		c[cRecovered] += st.RecoveredFlows
		c[cStale] += st.StaleCompletions
		c[cBytesSent] += st.Wire.BytesSent
		c[cParcelsSent] += st.Wire.ParcelsSent
	}
	return c
}

// ownedLocales is the origin node's share of the ring.
func (w *tcpWorkload) ownedLocales() int { return len(w.nodes[0].OwnedLocales()) }

func (w *tcpWorkload) invariants() error {
	var orig, done int64
	for i, n := range w.nodes {
		if err := serveInvariants(string(tcpNodeIDs[i]), n.Serve()); err != nil {
			return err
		}
		st := n.Stats()
		orig += st.FlowsOriginated
		done += st.FlowsCompleted
		if st.RecoveredFlows != 0 || st.StaleCompletions != 0 {
			return fmt.Errorf("%s: %d recovered flows, %d stale completions on a healthy run",
				tcpNodeIDs[i], st.RecoveredFlows, st.StaleCompletions)
		}
		if st.Members != 2 {
			return fmt.Errorf("%s: %d members, want 2", tcpNodeIDs[i], st.Members)
		}
	}
	if orig != done {
		return fmt.Errorf("cluster: %d flows originated, %d completed", orig, done)
	}
	return nil
}

func (w *tcpWorkload) close() {
	for i := len(w.nodes) - 1; i >= 0; i-- {
		if w.nodes[i] != nil {
			w.nodes[i].Close()
		}
	}
}

// --- calibrate -------------------------------------------------------

// noopWorkload completes every request inline, so a run measures the
// harness alone: its CPU and allocations per request.
type noopWorkload struct{}

func (noopWorkload) spec() spec {
	return spec{nominal: 40000, limit: 500 * time.Microsecond}
}
func (noopWorkload) setup(uint64, *tracer) error     { return nil }
func (noopWorkload) prepare(s *slot, rng *stats.RNG) { s.key = rng.Uint64() }
func (noopWorkload) submit(s *slot) error {
	s.done(serve.Result{Status: serve.StatusOK, Value: s})
	return nil
}
func (noopWorkload) check(s *slot, r serve.Result) bool { v, _ := r.Value.(*slot); return v == s }
func (noopWorkload) counters() counters                 { return counters{} }
func (noopWorkload) invariants() error                  { return nil }
func (noopWorkload) close()                             {}
