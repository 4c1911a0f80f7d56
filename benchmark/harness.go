package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"peercache/internal/chunk"
	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
)

// Run shape. One run is `rounds` independent overlays, each set up,
// warmed up and measured for an equal share of the run's seconds, so
// setup_s is a median of several set-ups and every other metric is
// taken on several node-id and key layouts (measured.col and
// measured.best are the two reductions).
const (
	rounds          = 3
	windowsPerRound = 4
	idleWindow      = 500 * time.Millisecond
	warmUp          = 1250 * time.Millisecond // ≥ one full aux frequency window (4 × auxEvery)
	convergeTimeout = 60 * time.Second

	// maxIdleCPUUtil aborts a run whose idle maintenance alone takes
	// more than this share of the cores: clients would then measure
	// the scheduler, not the program. Pastry idles at 0.35–0.41 on the
	// reference box; the ISSUE's 0.5 would leave a slower box no room.
	maxIdleCPUUtil = 0.75
	// maxFailShare is the share of ops that may fail, by error or by a
	// wrong result, before the run exits non-zero. No op fails on the
	// reference box.
	maxFailShare = 0.001
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// schedWorkers sizes the shared maintenance pool at one worker per
// job (four jobs a node), so a round stalled on an RPC timeout delays
// only its own next run, as it would under per-node tickers; the
// default pool of 16 would let the lossy workload's stalls starve every
// node's maintenance.
const schedWorkers = 4 * overlayNodes

// overlay is one booted cluster with the inputs it serves.
type overlay struct {
	w     *workload
	in    *inputs
	net   *memnet.Network
	sched *node.BatchScheduler
	c     *cluster.Cluster
	tr    *tracer // nil when the run is untraced
}

// startOverlay boots and joins the overlay's nodes. With a tracer,
// every node's PacketConn is wrapped.
func startOverlay(w *workload, in *inputs, seed int64, tr *tracer) (*overlay, error) {
	o := &overlay{w: w, in: in, net: memnet.New(seed), sched: node.NewBatchScheduler(schedWorkers), tr: tr}
	c, err := cluster.Start(in.space, o.net, in.ids, func(i int, cfg *node.Config) {
		cfg.NewRing = w.geo.newRing
		cfg.SuccessorListLen = neighborLen
		cfg.BucketSize = bucketSize
		cfg.AuxCount = auxCount
		cfg.StabilizeEvery = stabilizeEvery
		cfg.FixFingersEvery = fixFingersEvery
		cfg.FixFingersBatch = fixFingersBatch
		cfg.AuxEvery = auxEvery
		cfg.ReplicateEvery = replicateEvery
		cfg.RPCTimeout = rpcTimeout
		cfg.RPCRetries = rpcRetries
		cfg.ItemCacheCapacity = -1 // every read pays the network
		cfg.Scheduler = o.sched
		if tr != nil {
			cfg.Listen = func(addr string) (node.PacketConn, error) {
				ep, err := o.net.Listen(addr)
				if err != nil {
					return nil, err
				}
				return tr.wrap(i, ep), nil
			}
		}
	})
	if err != nil {
		o.sched.Close()
		o.net.CloseAll()
		return nil, err
	}
	o.c = c
	return o, nil
}

func (o *overlay) close() {
	o.c.Close()
	o.sched.Close()
	o.net.CloseAll()
}

// Indices into tally.
const (
	cMsgs  = iota // datagrams sent by all nodes
	cBytes        // wire bytes sent by all nodes
	cDecodeErrors
	cRetries
	cTimeouts
	cLookups
	cAuxHits
	cGetsIssued
	cGetsServed
	cStoreHits
	cReplicaServes
	cDigests
	cDiffKeys
	cReplBytes
	cFullPushes
	cDelivered // memnet.Stats from here on
	cDropped
	cOverflow
	nCounters
)

// tally is a cluster-wide sum of the node.Metrics and memnet.Stats
// counters the metrics are built from.
type tally [nCounters]uint64

func (t tally) sub(a tally) tally {
	for i := range t {
		t[i] -= a[i]
	}
	return t
}

// counters is a tally with the clock readings taken alongside it.
type counters struct {
	at  time.Time
	cpu time.Duration
	n   tally
}

func (o *overlay) snapshot() counters {
	s := counters{at: time.Now(), cpu: cpuTime()}
	for _, n := range o.c.Nodes {
		m := n.Metrics()
		for i, v := range [...]uint64{
			cMsgs: m.DatagramsOut, cBytes: m.BytesOut, cDecodeErrors: m.DecodeErrors,
			cRetries: m.Retries, cTimeouts: m.Timeouts, cLookups: m.Lookups, cAuxHits: m.AuxHits,
			cGetsIssued: m.GetsIssued, cGetsServed: m.GetsServed, cStoreHits: m.StoreHits,
			cReplicaServes: m.ReplicaServes, cDigests: m.DigestsOut, cDiffKeys: m.DiffKeysOut,
			cReplBytes: m.ReplBytesOut, cFullPushes: m.FullPushFallbacks,
		} {
			s.n[i] += v
		}
	}
	net := o.net.Stats()
	s.n[cDelivered], s.n[cDropped], s.n[cOverflow] = net.Delivered, net.Dropped, net.Overflow
	return s
}

// setupResult is what one set-up measured about itself.
type setupResult struct {
	seconds           float64
	maintMsgsPerNodeS float64
	idleCPUUtil       float64 // share of all cores
}

// setUp boots an overlay for (w, seed, round), waits for the
// geometry's strict convergence oracle, prices idle maintenance over an
// idle window, and preloads the workload's items.
func setUp(w *workload, seed int64, round int, tr *tracer) (*overlay, setupResult, error) {
	var r setupResult
	start := time.Now()
	in := genInputs(w, seed, round)
	o, err := startOverlay(w, in, netSeed(seed, round), tr)
	if err != nil {
		return nil, r, err
	}
	if err := w.geo.converged(o.c, convergeTimeout); err != nil {
		o.close()
		return nil, r, err
	}
	before := o.snapshot()
	time.Sleep(idleWindow)
	after := o.snapshot()
	secs := after.at.Sub(before.at).Seconds()
	r.maintMsgsPerNodeS = float64(after.n[cMsgs]-before.n[cMsgs]) / secs / overlayNodes
	r.idleCPUUtil = (after.cpu - before.cpu).Seconds() / secs / float64(runtime.NumCPU())
	if err := o.preload(seed, round); err != nil {
		o.close()
		return nil, r, err
	}
	r.seconds = time.Since(start).Seconds()
	return o, r, nil
}

// netSeed is the memnet fault-sampling seed of one round.
func netSeed(seed int64, round int) int64 { return seed*int64(rounds) + int64(round) }

// preload stores the workload's items through random origins: every
// key of the universe once, or every stream object.
func (o *overlay) preload(seed int64, round int) error {
	src := newOpSource(o.w, o.in, seed, round, "preload", 0)
	if o.w.stream {
		for _, obj := range o.in.objects {
			st, err := o.chunkStore(o.c.Nodes[src.rng.Intn(overlayNodes)], nil)
			if err != nil {
				return err
			}
			if _, err := st.PutObject(obj.root, obj.data); err != nil {
				return fmt.Errorf("preload object %d: %w", obj.root, err)
			}
		}
		return nil
	}
	buf := make([]byte, valueLen)
	for i, key := range o.in.keys {
		fillValue(buf, o.in.body, key, 0)
		res, err := o.c.Nodes[src.rng.Intn(overlayNodes)].Put(key, buf)
		if err != nil {
			return fmt.Errorf("preload key %d: %w", key, err)
		}
		if res.Owner.ID != o.in.owners[i] {
			return fmt.Errorf("preload key %d stored at %d, oracle owner is %d", key, res.Owner.ID, o.in.owners[i])
		}
	}
	return nil
}

// chunkStore is a chunk.Store whose reads are any-copy FindValue calls
// into n, escalating to an owner Get after a digest mismatch. kt, when
// non-nil, records a span around every Get.
func (o *overlay) chunkStore(n *node.Node, kt *kvTrace) (*chunk.Store, error) {
	var kv chunk.KV = chunk.FuncKV{
		PutFunc: func(key id.ID, value []byte) error {
			_, err := n.Put(key, value)
			return err
		},
		GetFunc: func(key id.ID) ([]byte, int, error) {
			res, err := n.FindValue(key)
			return res.Value, res.Hops, err
		},
	}
	if kt != nil {
		kt.inner = kv
		kv = kt
	}
	return chunk.New(kv, chunk.Options{
		Space:    o.in.space,
		Prefetch: streamPrefetch,
		Retries:  3,
		StrongGet: func(key id.ID) ([]byte, int, error) {
			res, err := n.Get(key)
			return res.Value, res.Hops, err
		},
	})
}

// sample is one completed client op.
type sample struct {
	end     time.Time
	latency time.Duration
	ttfb    time.Duration // time to the first result byte; the latency of a single-reply op
	hops    int           // lookup hops the op's results reported
	hopOps  int           // how many results reported them (chunks of a stream read, else 1)
	payload int           // verified payload bytes (stream reads)
	err     bool          // the call returned an error
	ok      bool          // completed without error and verified
}

// client is one closed-loop client goroutine's state.
type client struct {
	index   int
	src     *opSource
	buf     []byte // Put value scratch
	seq     uint64
	samples []sample
}

// exec performs one op against the overlay and verifies its result.
func (o *overlay) exec(cl *client, p op) sample {
	n := o.c.Nodes[p.origin]
	var s sample
	s.hopOps = 1
	start := time.Now()
	switch p.kind {
	case opLookup:
		key := o.in.keys[p.item]
		sp := o.tr.begin(spanLookup, p.origin, key, 0)
		owner, hops, err := n.Lookup(key)
		o.tr.end(sp)
		s.hops, s.err, s.ok = hops, err != nil, err == nil && owner.ID == o.in.owners[p.item]
	case opGet:
		key := o.in.keys[p.item]
		sp := o.tr.begin(spanGet, p.origin, key, 0)
		res, err := n.Get(key)
		o.tr.end(sp)
		s.hops, s.err, s.ok = res.Hops, err != nil, err == nil && checkValue(res.Value, key)
	case opPut:
		key := o.in.keys[p.item]
		cl.seq++
		fillValue(cl.buf, o.in.body, key, cl.seq<<8|uint64(cl.index))
		sp := o.tr.begin(spanPut, p.origin, key, 0)
		res, err := n.Put(key, cl.buf)
		o.tr.end(sp)
		s.hops, s.err, s.ok = res.Hops, err != nil, err == nil && res.Owner.ID == o.in.owners[p.item]
	case opStream:
		s = o.readObject(n, p)
	}
	s.end = time.Now()
	s.latency = s.end.Sub(start)
	if p.kind != opStream {
		s.ttfb = s.latency
	}
	return s
}

// readObject streams one whole object through chunk.Store and
// byte-compares it.
func (o *overlay) readObject(n *node.Node, p op) sample {
	obj := o.in.objects[p.item]
	var s sample
	sp := o.tr.begin(spanChunkRead, p.origin, obj.root, 0)
	defer o.tr.end(sp)
	var kt *kvTrace
	if sp != nil {
		kt = &kvTrace{tr: o.tr, node: p.origin, parent: sp.id}
	}
	st, err := o.chunkStore(n, kt)
	if err != nil {
		s.err = true
		return s
	}
	rd, err := st.NewReader(obj.root)
	if err != nil {
		s.err = true
		return s
	}
	got, err := io.ReadAll(rd)
	rd.Close()
	stats := rd.Stats()
	s.ttfb = stats.TTFB
	s.hops, s.hopOps = stats.FetchHops, stats.Chunks
	s.err, s.ok = err != nil, err == nil && bytes.Equal(got, obj.data)
	if s.ok {
		s.payload = len(got)
	}
	o.tr.readStats(stats)
	return s
}

// drive runs the workload's closed-loop clients against the overlay
// for dur, and snapshots the cluster counters at windows+1 evenly
// spaced marks. Each client issues its next op only after the previous
// one returned.
func (o *overlay) drive(seed int64, round int, phase string, dur time.Duration, windows int) ([]sample, []counters) {
	start := time.Now()
	deadline := start.Add(dur)
	clients := make([]*client, o.w.clients)
	var wg sync.WaitGroup
	for i := range clients {
		cl := &client{
			index: i,
			src:   newOpSource(o.w, o.in, seed, round, phase, i),
			buf:   make([]byte, valueLen),
		}
		clients[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				cl.samples = append(cl.samples, o.exec(cl, cl.src.next()))
			}
		}()
	}
	marks := []counters{o.snapshot()}
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(dur * time.Duration(w) / time.Duration(windows))))
		marks = append(marks, o.snapshot())
	}
	wg.Wait()
	var all []sample
	for _, cl := range clients {
		all = append(all, cl.samples...)
	}
	return all, marks
}

// window is the per-window value of every metric taken in a measured
// window.
type window struct {
	n, failed, errored            int // ops completed; failed = errored + wrong results
	seconds                       float64
	opsS, p50us, p99us, ttfbP50us float64
	p99rank                       float64 // the percentile actually reported as p99us
	meanHops                      float64
	msgsPerOp, bytesPerOp         float64
	cpuUsPerOp, cpuUtil           float64
	goodputMBs                    float64
	delta                         counters // counter growth over the window
}

// windowsOf buckets samples into the windows between consecutive marks
// by completion time and reduces each to its metrics.
func windowsOf(samples []sample, marks []counters) []window {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end.Before(samples[j].end) })
	out := make([]window, 0, len(marks)-1)
	i := 0
	for i < len(samples) && samples[i].end.Before(marks[0].at) {
		i++
	}
	for w := 0; w+1 < len(marks); w++ {
		a, b := marks[w], marks[w+1]
		var lat, ttfb []float64
		var hops, hopOps, payload, failed, errored int
		for ; i < len(samples) && samples[i].end.Before(b.at); i++ {
			s := samples[i]
			if s.err {
				errored++
			}
			if !s.ok {
				failed++
				continue
			}
			lat = append(lat, float64(s.latency.Nanoseconds())/1e3)
			ttfb = append(ttfb, float64(s.ttfb.Nanoseconds())/1e3)
			hops += s.hops
			hopOps += s.hopOps
			payload += s.payload
		}
		sort.Float64s(lat)
		sort.Float64s(ttfb)
		win := window{n: len(lat) + failed, failed: failed, errored: errored, seconds: b.at.Sub(a.at).Seconds()}
		win.delta = counters{cpu: b.cpu - a.cpu, n: b.n.sub(a.n)}
		if ok := float64(len(lat)); ok > 0 {
			win.opsS = ok / win.seconds
			win.p50us = percentile(lat, 50)
			win.p99rank = supportedPercentile(len(lat), 99)
			win.p99us = percentile(lat, win.p99rank)
			win.ttfbP50us = percentile(ttfb, 50)
			win.meanHops = float64(hops) / float64(hopOps)
			win.msgsPerOp = float64(win.delta.n[cMsgs]) / ok
			win.bytesPerOp = float64(win.delta.n[cBytes]) / ok
			win.cpuUsPerOp = float64(win.delta.cpu.Microseconds()) / ok
			win.goodputMBs = float64(payload) / 1e6 / win.seconds
		}
		win.cpuUtil = win.delta.cpu.Seconds() / win.seconds / float64(runtime.NumCPU())
		out = append(out, win)
	}
	return out
}
