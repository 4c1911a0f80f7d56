package main

import (
	"fmt"
	"time"
)

// measured is the windows of a run, one slice per overlay they were
// taken on, with the failures counted in them.
type measured struct {
	rounds                     [][]window
	attempted, failed, errored int
}

// add appends the windows of one overlay.
func (m *measured) add(ws []window) {
	m.rounds = append(m.rounds, ws)
	for _, w := range ws {
		m.attempted += w.n
		m.failed += w.failed
		m.errored += w.errored
	}
}

func (m *measured) windows() []window {
	var all []window
	for _, ws := range m.rounds {
		all = append(all, ws...)
	}
	return all
}

// col is the median over all windows of one per-window value. It is
// the reduction of the counts, which differ between overlays in both
// directions.
func (m *measured) col(f func(window) float64) float64 {
	var xs []float64
	for _, w := range m.windows() {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// best is the reduction of rates and latencies: the median over the
// overlays of each overlay's best window. Interference from outside
// the process only ever slows a window down, so within one overlay the
// best window is the least disturbed one; between overlays the layouts
// differ in both directions, hence the median.
func (m *measured) best(higher bool, f func(window) float64) float64 {
	var xs []float64
	for _, ws := range m.rounds {
		if len(ws) == 0 {
			continue
		}
		b := f(ws[0])
		for _, w := range ws[1:] {
			if v := f(w); (v > b) == higher {
				b = v
			}
		}
		xs = append(xs, b)
	}
	return median(xs)
}

func (m *measured) failShare() float64 {
	if m.attempted == 0 {
		return 1
	}
	return float64(m.failed) / float64(m.attempted)
}

// fill sets the record's verdict and window facts from the windows.
func (m *measured) fill(rec *runRecord) {
	rec.Attempted, rec.Failed, rec.Errored = m.attempted, m.failed, m.errored
	rec.Correct = m.attempted > 0 && m.failShare() <= maxFailShare
	for i, win := range m.windows() {
		if ok := win.n - win.failed; i == 0 || ok < rec.WindowSamples {
			rec.WindowSamples = ok
		}
		if i == 0 || win.p99rank < rec.P99Rank {
			rec.P99Rank = win.p99rank
		}
	}
	rec.WindowOpsS, rec.WindowSpread = m.opsSpread()
}

// opsSpread returns ops_s of every window and their (max − min) /
// median.
func (m *measured) opsSpread() (ops []float64, spread float64) {
	lo, hi := 0.0, 0.0
	for i, win := range m.windows() {
		ops = append(ops, win.opsS)
		if i == 0 || win.opsS < lo {
			lo = win.opsS
		}
		if win.opsS > hi {
			hi = win.opsS
		}
	}
	if med := median(ops); med > 0 {
		spread = (hi - lo) / med
	}
	return ops, spread
}

// checkIdle refuses a run whose idle maintenance alone takes more than
// maxIdleCPUUtil of the cores.
func checkIdle(util float64) error {
	if util > maxIdleCPUUtil {
		return fmt.Errorf("idle maintenance takes %.2f of the cores (limit %.2f): clients would measure the scheduler, not the program", util, maxIdleCPUUtil)
	}
	return nil
}

// startLoad installs the workload's link policy, if any, and warms the
// overlay up: the Go runtime, and one full aux frequency window.
func startLoad(o *overlay, seed int64, round int) {
	o.net.SetDefaultPolicy(o.w.link)
	o.drive(seed, round, "warm", warmUp, 1)
}

// runUntraced is the end-to-end run: rounds × (set up, warm up,
// measure), every metric a median.
func runUntraced(w *workload, seed int64, seconds int) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Seconds: seconds}
	var m measured
	var setupS, maint, idle []float64
	share := time.Duration(seconds) * time.Second / rounds
	for round := 0; round < rounds; round++ {
		o, sr, err := setUp(w, seed, round, nil)
		if err != nil {
			return rec, err
		}
		setupS = append(setupS, sr.seconds)
		maint = append(maint, sr.maintMsgsPerNodeS)
		idle = append(idle, sr.idleCPUUtil)
		startLoad(o, seed, round)
		m.add(windowsOf(o.drive(seed, round, "measure", share, windowsPerRound)))
		o.close()
	}
	if err := checkIdle(median(idle)); err != nil {
		return rec, err
	}
	m.fill(&rec)
	rec.RoundSetupS = setupS
	rec.Metrics = map[string]metric{
		"setup_s":               {median(setupS), "s"},
		"ops_s":                 {m.best(true, func(w window) float64 { return w.opsS }), "1/s"},
		"lat_p50_us":            {m.best(false, func(w window) float64 { return w.p50us }), "us"},
		"lat_p99_us":            {m.best(false, func(w window) float64 { return w.p99us }), "us"},
		"ttfb_p50_us":           {m.best(false, func(w window) float64 { return w.ttfbP50us }), "us"},
		"mean_hops":             {m.col(func(w window) float64 { return w.meanHops }), "count"},
		"maint_msgs_per_node_s": {median(maint), "1/s"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
		"msgs_per_op":           {m.col(func(w window) float64 { return w.msgsPerOp }), "count"},
		"bytes_per_op":          {m.col(func(w window) float64 { return w.bytesPerOp }), "B"},
	}
	return rec, nil
}

// auxSampleNodes is how many nodes RecomputeAux is timed on.
const auxSampleNodes = 32

// runTraced is the per-layer run: the layer probes, then one overlay
// measured for half the seconds with the tracer off and half with it
// on. Counter and span metrics come from the traced half.
func runTraced(w *workload, seed int64, seconds int, outDir string) (runRecord, error) {
	rec := runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Trace: 1}
	ms, err := runLayerProbes()
	if err != nil {
		return rec, err
	}
	tr := newTracer()
	o, sr, err := setUp(w, seed, 0, tr)
	if err != nil {
		return rec, err
	}
	if err := checkIdle(sr.idleCPUUtil); err != nil {
		o.close()
		return rec, err
	}
	startLoad(o, seed, 0)
	half := time.Duration(seconds) * time.Second / 2
	var plain, traced measured
	plain.add(windowsOf(o.drive(seed, 0, "plain", half, windowsPerRound)))
	tr.on.Store(true)
	traced.add(windowsOf(o.drive(seed, 0, "traced", half, windowsPerRound)))
	tr.on.Store(false)

	var auxUs []float64
	for _, n := range o.c.Nodes[:auxSampleNodes] {
		start := time.Now()
		if _, err := n.RecomputeAux(); err != nil {
			o.close()
			return rec, fmt.Errorf("recompute aux on node %d: %w", n.ID(), err)
		}
		auxUs = append(auxUs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	o.close()
	sum := tr.summarize()
	spanFile, err := tr.writeSpans(outDir, fmt.Sprintf("spans-%s-%d.csv", w.name, seed))
	if err != nil {
		return rec, err
	}
	fmt.Printf("%d spans written to %s\n", sum.spanCount, spanFile)

	all := measured{}
	all.add(plain.windows())
	all.add(traced.windows())
	all.fill(&rec)
	rec.WindowOpsS, rec.WindowSpread = plain.opsSpread() // the traced half is slower by the overhead

	// Counter growth over the traced windows, cluster-wide.
	var d tally
	var secs float64
	var ok int
	for _, win := range traced.windows() {
		for i := range d {
			d[i] += win.delta.n[i]
		}
		secs += win.seconds
		ok += win.n - win.failed
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	ops := uint64(ok)
	plainOps := plain.best(true, func(w window) float64 { return w.opsS })
	add := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	add("node.lookup_us", sum.opP50us[spanLookup], "us")
	add("node.get_us", sum.opP50us[spanGet], "us")
	add("node.put_us", sum.opP50us[spanPut], "us")
	add("node.find_value_us", sum.opP50us[spanFindValue], "us")
	add("chunk.read_us", sum.opP50us[spanChunkRead], "us")
	add("node.rpc_us", sum.rpcP50us, "us")
	add("node.rpc_p99_us", sum.rpcP99us, "us")
	add("node.lookup_self_us", sum.opSelfP50us, "us")
	add("node.rpcs_per_op", sum.rpcsPerOp, "count")
	add("node.wasted_rpc_share", sum.wastedShare, "share")
	add("chunk.self_us", sum.chunkSelfUs, "us")
	add("chunk.wait_share", sum.waitShare, "share")
	add("chunk.wait_chunk_share", sum.waitChunks, "share")
	add("chunk.ttfb_p50_us", traced.best(false, func(w window) float64 { return w.ttfbP50us }), "us")
	add("memnet.write_ns", sum.writeNs, "ns")
	add("memnet.delivered_per_op", ratio(d[cDelivered], ops), "count")
	add("memnet.dropped_share", ratio(d[cDropped], d[cDelivered]+d[cDropped]+d[cOverflow]), "share")
	add("memnet.overflow", float64(d[cOverflow]), "count")
	add("wire.replay_decode_ns", sum.replayDecNs, "ns")
	add("wire.replay_encode_ns", sum.replayEncNs, "ns")
	add("wire.mean_datagram_bytes", sum.meanBytes, "B")
	add("wire.share_lookup", sum.typeShare[shareLookup], "share")
	add("wire.share_maint", sum.typeShare[shareMaint], "share")
	add("wire.share_data", sum.typeShare[shareData], "share")
	add("wire.share_repl", sum.typeShare[shareRepl], "share")

	add("node.aux_hit_share", ratio(d[cAuxHits], d[cLookups]), "share")
	add("node.retries_per_op", ratio(d[cRetries], ops), "count")
	add("node.timeouts_per_op", ratio(d[cTimeouts], ops), "count")
	add("node.replica_serve_share", ratio(d[cReplicaServes], d[cGetsServed]), "share")
	add("node.store_hit_share", ratio(d[cStoreHits], d[cGetsIssued]), "share")
	add("node.digests_per_s", float64(d[cDigests])/secs, "1/s")
	add("node.diff_keys_per_s", float64(d[cDiffKeys])/secs, "1/s")
	add("node.repl_bytes_per_s", float64(d[cReplBytes])/secs, "B/s")
	add("node.full_push_fallbacks", float64(d[cFullPushes]), "count")
	add("node.decode_errors", float64(d[cDecodeErrors]), "count")
	for _, g := range []*geometry{chordGeo, pastryGeo, kadGeo} {
		v := 0.0
		if g == w.geo {
			v = median(auxUs)
		}
		add(g.module+".aux_recompute_us", v, "us")
	}

	add("harness.idle_cpu_util", sr.idleCPUUtil, "share")
	add("harness.load_cpu_util", plain.col(func(w window) float64 { return w.cpuUtil }), "share")
	add("harness.window_spread", rec.WindowSpread, "share")
	add("harness.fail_share", all.failShare(), "share")
	add("harness.cpu_us_per_op", plain.col(func(w window) float64 { return w.cpuUsPerOp }), "us")
	add("harness.goodput_mb_s", plain.best(true, func(w window) float64 { return w.goodputMBs }), "MB/s")
	overhead := 0.0
	if plainOps > 0 {
		overhead = (plainOps - traced.best(true, func(w window) float64 { return w.opsS })) / plainOps
	}
	add("trace.overhead_share", overhead, "share")
	rec.Metrics = ms
	return rec, nil
}
