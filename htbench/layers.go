package main

// layerMetrics turns one traced phase into the per-layer metrics. Each
// is printed on every workload; one a workload does not exercise reads
// 0, which is its prediction there (README.md lists where each should
// move). base is the untraced phase run just before, on the same
// program instance, for the tracing overhead and the untraced tail.
func layerMetrics(w workload, p, base *phaseStats, dc counters, lt layerTimes) map[string]metric {
	done := float64(max(p.ok, 1))
	us := func(xs []int64, q float64) float64 { return quantileNS(xs, q) / 1e3 }
	frac := func(a, b int64) float64 {
		if b <= 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var waits []int64
	for i, l := range p.lat {
		if l >= 0 && i < len(p.waitNS) {
			waits = append(waits, p.waitNS[i])
		}
	}
	var owned int64
	if c, ok := w.(interface{ ownedLocales() int }); ok {
		owned = int64(c.ownedLocales())
	}
	var pauses []int64
	for _, s := range p.gcPauses {
		pauses = append(pauses, int64(s*1e9))
	}
	cpuPerReq := func(ph *phaseStats) float64 { return float64(ph.cpuNS) / float64(max(ph.ok, 1)) }
	basep50 := latencyQuantile(base.lat, 0.5)

	m := map[string]metric{
		"gen.lag_p50_us":        {us(p.lag, 0.5), "us"},
		"gen.lag_p99_us":        {us(p.lag, 0.99), "us"},
		"serve.submit_ns_p50":   {quantileNS(p.submitNS, 0.5), "ns"},
		"serve.submit_ns_p99":   {quantileNS(p.submitNS, 0.99), "ns"},
		"serve.wait_us_p50":     {us(waits, 0.5), "us"},
		"serve.wait_us_p99":     {us(waits, 0.99), "us"},
		"serve.batch_mean":      {frac(dc[cAccepted], dc[cBatches]), "count"},
		"serve.complete_us_p50": {us(lt.complete, 0.5), "us"},
		"serve.handler_us_p50":  {us(lt.handler, 0.5), "us"},
		"serve.reject_frac":     {frac(dc[cRejected], dc[cAccepted]+dc[cRejected]), "frac"},
		"serve.shed_frac":       {frac(dc[cShed], dc[cAccepted]), "frac"},

		"core.steals_per_kreq":     {1000 * float64(dc[cStealLocal]+dc[cStealRemote]) / done, "count"},
		"core.migrations_per_kreq": {1000 * float64(dc[cMigrations]) / done, "count"},

		"pipe.hop_us_p50":      {us(lt.hop, 0.5), "us"},
		"pipe.fanin_us_p50":    {us(lt.fanin, 0.5), "us"},
		"pipe.fan_skew_us_p50": {us(lt.skew, 0.5), "us"},

		"mem.staged_per_flow":    {float64(dc[cDataStaged]) / done, "count"},
		"mem.remote_access_frac": {frac(dc[cRemoteReads]+dc[cRemoteWrites], dc[cReads]+dc[cWrites]), "frac"},

		"cluster.remote_hop_us_p50":  {us(lt.remoteHop, 0.5), "us"},
		"cluster.remote_hop_us_p99":  {us(lt.remoteHop, 0.99), "us"},
		"cluster.ship_us_p50":        {us(lt.ship, 0.5), "us"},
		"cluster.forwarded_per_flow": {float64(dc[cForwarded]) / done, "count"},
		"cluster.remote_frac":        {float64(dc[cRemoteStages]) / (done * tcpStages), "frac"},
		"cluster.ship_at_admit_frac": {frac(int64(lt.shipped), int64(lt.flows)), "frac"},
		"cluster.owned_locales":      {float64(owned), "count"},
		"cluster.recovered_flows":    {float64(dc[cRecovered]), "count"},
		"cluster.stale_completions":  {float64(dc[cStale]), "count"},

		"wire.bytes_per_flow":   {float64(dc[cBytesSent]) / done, "bytes"},
		"wire.parcels_per_flow": {float64(dc[cParcelsSent]) / done, "count"},
		"wire.send_us_p50":      {us(lt.send, 0.5), "us"},
		"wire.transit_us_p50":   {us(lt.transit, 0.5), "us"},
		"wire.transit_us_p99":   {us(lt.transit, 0.99), "us"},
		"wire.recv_us_p50":      {us(lt.recv, 0.5), "us"},

		"go.gc_per_kreq":         {1000 * float64(p.gcCycles) / done, "count"},
		"go.gc_pause_us_p99":     {us(pauses, 0.99), "us"},
		"go.alloc_bytes_per_req": {float64(p.allocBytes) / done, "bytes"},

		"trace.overhead_p50_frac": {finite(latencyQuantile(p.lat, 0.5)/basep50 - 1), "frac"},
		"trace.overhead_cpu_frac": {cpuPerReq(p)/cpuPerReq(base) - 1, "frac"},

		"host.steal_frac": {p.stealFrac(), "frac"},

		"e2e.p99_us":   {finite(latencyQuantile(base.lat, 0.99) / 1e3), "us"},
		"e2e.err_frac": {frac(base.errs(), base.offered), "frac"},
	}
	return m
}
