package main

import (
	"bufio"
	"fmt"
	"hash/maphash"
	"os"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/parcel"
)

// Tracing. A traced run records one span at each layer boundary the
// benchmark can reach from outside the program: the request as the
// generator sees it, the submit call, each handler execution, and each
// parcel send and receive through a wrapper around the cluster's
// transport. Spans are kept in a preallocated slice and written out
// when the run ends. A request's spans are all kept or all skipped
// (see spanSampling).

type spanKind uint8

const (
	spanReq     spanKind = iota // due → result callback (the root)
	spanSubmit                  // the SubmitFunc / SubmitFlowFunc call
	spanHandler                 // one stage handler execution
	spanSend                    // wrapped Transport.Send
	spanRecv                    // wrapped transport handler
)

var spanNames = [...]string{"req", "submit", "handler", "wire.send", "wire.recv"}

// span is one recorded interval. id is the request id carried in the
// payload; wire spans carry a hash of the parcel body instead, which
// joins a send to its receive (analyze joins them to stage boundaries).
type span struct {
	start, end int64
	id         uint64
	hash       uint64
	kind       spanKind
	node       int8 // cluster node index, -1 off-cluster
	stage      int8
	elem       int8 // fan-out element, -1 for scalar stages
	method     uint8
}

// Wire methods the analysis tells apart.
const (
	methodOther uint8 = iota
	methodStage
	methodComplete
)

func methodCode(m string) uint8 {
	switch m {
	case "cluster.stage":
		return methodStage
	case "cluster.complete":
		return methodComplete
	}
	return methodOther
}

// tracer collects spans while on. A nil *tracer records nothing and
// every method is safe on it, so untraced runs pay one nil check.
type tracer struct {
	on      atomic.Bool
	writers atomic.Int64 // add calls in progress
	n       atomic.Int64
	spans   []span
	every   uint64 // requests whose id is a multiple of every are recorded
	seed    maphash.Seed
}

func newTracer(capacity int, every uint64) *tracer {
	return &tracer{spans: make([]span, capacity), every: every, seed: maphash.MakeSeed()}
}

// isOn reports whether spans are being recorded; false on a nil tracer.
func (t *tracer) isOn() bool { return t != nil && t.on.Load() }

// now reads the clock only when tracing.
func (t *tracer) now() int64 {
	if !t.isOn() {
		return 0
	}
	return now()
}

func (t *tracer) add(s span) {
	if t == nil || (s.kind < spanSend && s.id%t.every != 0) {
		return
	}
	t.writers.Add(1) // before the on check: stop waits for this writer
	if t.on.Load() {
		if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
			t.spans[i] = s
		}
	}
	t.writers.Add(-1)
}

// stop ends recording and waits for writers already past the on check,
// so the spans can be read.
func (t *tracer) stop() {
	t.on.Store(false)
	for t.writers.Load() != 0 {
		runtime.Gosched()
	}
}

// handler records one handler span that started at t0.
func (t *tracer) handler(id uint64, stage, elem, node int8, t0 int64) {
	if t.isOn() {
		t.add(span{kind: spanHandler, id: id, stage: stage, elem: elem, node: node, start: t0, end: now()})
	}
}

// recorded returns the spans kept so far (capacity-bounded) and how
// many were dropped for lack of room.
func (t *tracer) recorded() ([]span, int64) {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// tracedTransport wraps the parcel.Transport handed to cluster.Config:
// it times each Send and each inbound handler, keyed by a hash of the
// body bytes, and alters nothing.
type tracedTransport struct {
	parcel.Transport
	tr   *tracer
	node int8
}

func (t *tracedTransport) Send(dest parcel.NodeID, method string, body []byte) error {
	if !t.tr.on.Load() {
		return t.Transport.Send(dest, method, body)
	}
	t0 := now()
	h := maphash.Bytes(t.tr.seed, body)
	err := t.Transport.Send(dest, method, body)
	t.tr.add(span{kind: spanSend, node: t.node, method: methodCode(method), hash: h, start: t0, end: now()})
	return err
}

func (t *tracedTransport) Handle(method string, h parcel.TransportHandler) {
	code := methodCode(method)
	t.Transport.Handle(method, func(from parcel.NodeID, body []byte) ([]byte, error) {
		if !t.tr.on.Load() {
			return h(from, body)
		}
		t0 := now()
		hh := maphash.Bytes(t.tr.seed, body)
		out, err := h(from, body)
		t.tr.add(span{kind: spanRecv, node: t.node, method: code, hash: hh, start: t0, end: now()})
		return out, err
	})
}

// layerTimes are the per-layer distributions a traced phase yields, in
// nanoseconds.
type layerTimes struct {
	handler, complete, hop, fanin, skew []int64
	remoteHop, ship                     []int64
	send, transit, recv                 []int64
	shipped                             int // stage-0 flows shipped at admission
	flows                               int
}

// analyze joins the spans of one traced phase into per-layer samples.
// Handler spans join by request id. Wire spans join send to receive by
// body hash, and to a request by time: the send of a cross-node stage
// boundary is the first unclaimed stage send on the producing node that
// starts after the producer's handler ended and whose receive started
// before the consumer's handler did.
func analyze(spans []span) layerTimes {
	var lt layerTimes
	type stageRec struct {
		start, end int64
		node       int8
		ok         bool
	}
	type flowRec struct {
		stages  [tcpStages]stageRec
		elems   [fanWidth]stageRec
		sub     int64
		hasSub  bool
		nElems  int
		reqEnd  int64 // result callback
		lastEnd int64 // end of the latest handler
	}
	flows := map[uint64]*flowRec{}
	get := func(id uint64) *flowRec {
		f := flows[id]
		if f == nil {
			f = &flowRec{}
			flows[id] = f
		}
		return f
	}
	recvByHash := map[uint64]span{}
	var sends []span
	for _, s := range spans {
		switch s.kind {
		case spanReq:
			get(s.id).reqEnd = s.end
		case spanHandler:
			lt.handler = append(lt.handler, s.end-s.start)
			f := get(s.id)
			f.lastEnd = max(f.lastEnd, s.end)
			if s.elem >= 0 && int(s.elem) < fanWidth {
				f.elems[s.elem] = stageRec{s.start, s.end, s.node, true}
				f.nElems++
			} else if s.stage >= 0 && int(s.stage) < tcpStages {
				f.stages[s.stage] = stageRec{s.start, s.end, s.node, true}
			}
		case spanSubmit:
			f := get(s.id)
			f.sub, f.hasSub = s.start, true
		case spanRecv:
			if s.method != methodOther {
				lt.recv = append(lt.recv, s.end-s.start)
				recvByHash[s.hash] = s
			}
		case spanSend:
			if s.method != methodOther {
				lt.send = append(lt.send, s.end-s.start)
				sends = append(sends, s)
			}
		}
	}
	for _, s := range sends {
		if r, ok := recvByHash[s.hash]; ok {
			lt.transit = append(lt.transit, r.start-s.start)
		}
	}
	// Stage sends per producing node, in start order, for the time join.
	slices.SortFunc(sends, func(a, b span) int { return int(a.start - b.start) })
	claimed := make([]bool, len(sends))
	ship := func(node int8, from, to int64) {
		i, _ := slices.BinarySearchFunc(sends, from, func(s span, t int64) int { return int(s.start - t) })
		for ; i < len(sends) && sends[i].start <= to; i++ {
			s := sends[i]
			if claimed[i] || s.node != node || s.method != methodStage {
				continue
			}
			if r, ok := recvByHash[s.hash]; ok && r.start <= to {
				claimed[i] = true
				lt.ship = append(lt.ship, s.start-from)
				return
			}
		}
	}
	for _, f := range flows {
		if f.reqEnd > 0 && f.lastEnd > 0 {
			lt.complete = append(lt.complete, f.reqEnd-f.lastEnd)
		}
		if f.nElems == fanWidth && f.stages[0].ok && f.stages[2].ok {
			first, last := f.elems[0].end, f.elems[0].end
			for _, e := range f.elems {
				lt.hop = append(lt.hop, e.start-f.stages[0].end)
				first, last = min(first, e.end), max(last, e.end)
			}
			lt.fanin = append(lt.fanin, f.stages[2].start-last)
			lt.skew = append(lt.skew, last-first)
			lt.flows++
			continue
		}
		if f.nElems > 0 || !f.stages[0].ok {
			continue
		}
		lt.flows++
		if f.stages[0].node >= 0 && f.hasSub && f.stages[0].node != 0 {
			lt.shipped++
			ship(0, f.sub, f.stages[0].start)
		}
		for k := 0; k+1 < tcpStages; k++ {
			a, b := f.stages[k], f.stages[k+1]
			if !a.ok || !b.ok {
				continue
			}
			if a.node == b.node {
				lt.hop = append(lt.hop, b.start-a.end)
			} else {
				lt.remoteHop = append(lt.remoteHop, b.start-a.end)
				ship(a.node, a.end, b.start)
			}
		}
	}
	return lt
}

// writeSpans writes one JSON object per span. Submit and handler spans
// name the request root ("req", same id) as parent; wire spans carry
// their body hash.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		parent := ""
		if s.kind == spanSubmit || s.kind == spanHandler {
			parent = "req"
		}
		fmt.Fprintf(w, `{"name":%q,"parent":%q,"id":%d,"start_ns":%d,"end_ns":%d,"node":%d,"stage":%d,"elem":%d,"hash":"%016x"}`+"\n",
			spanNames[s.kind], parent, s.id, s.start, s.end, s.node, s.stage, s.elem, s.hash)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the median of each span's duration
// minus the part of it its child spans of the same request cover (for
// the request root: everything but submit and handler time).
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.kind == spanSubmit || s.kind == spanHandler {
			children[s.id] = append(children[s.id], [2]int64{s.start, s.end})
		}
	}
	self := map[string][]int64{}
	for _, s := range spans {
		d := s.end - s.start
		if s.kind == spanReq {
			d -= covered(children[s.id], s.start, s.end)
		}
		self[spanNames[s.kind]] = append(self[spanNames[s.kind]], d)
	}
	out := map[string]float64{}
	for k, v := range self {
		out[k] = quantileNS(v, 0.5) / 1e3
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}
