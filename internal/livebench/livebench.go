// Package livebench boots a full live overlay — real node runtime,
// real wire codec, memnet switchboard — at 1k+ node scale in one
// process, drives a Zipf workload through it, and reports a
// machine-readable performance snapshot. It is the live counterpart of
// internal/experiment's simulator figures: where those reproduce the
// paper's discrete-event sweeps, livebench measures what the actual
// implementation does — hops, latency, message and byte rates,
// auxiliary cache hit rate, maintenance overhead — so every future
// change shows its delta against the committed BENCH_live.json
// trajectory.
//
// Scale is what the harness is built around: nodes share one
// node.BatchScheduler (a single timer heap + bounded worker pool
// instead of four ticker goroutines each) and maintenance periods
// scale with n, so a 1024-node overlay boots, converges against the
// cluster package's exact oracles, and completes its workload on
// modest hardware.
package livebench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"peercache/internal/chunk"
	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
	"peercache/internal/node/chordring"
	"peercache/internal/node/kadring"
	"peercache/internal/node/pastryring"
	"peercache/internal/node/ring"
	"peercache/internal/randx"
)

// Protos lists the geometries a live run can measure, in canonical
// order.
var Protos = []string{"chord", "pastry", "kademlia"}

var factories = map[string]ring.Factory{
	"chord":    chordring.New,
	"pastry":   pastryring.New,
	"kademlia": kadring.New,
}

// Options selects one live benchmark run (one geometry). Everything
// else about the run is a constant below or derived from N.
type Options struct {
	// Proto is the routing geometry: chord, pastry, or kademlia.
	Proto string
	// N is the overlay size (default 1024).
	N int
	// Seed drives every random choice: ids, keys, workload, memnet.
	Seed int64
	// Bits is the identifier length (default 16).
	Bits uint
	// AuxCount is the auxiliary-neighbor budget k (default 8).
	AuxCount int
	// Logf, when non-nil, receives phase-progress lines.
	Logf func(format string, args ...any)
}

// The run's fixed shape.
const (
	// successorListLen bounds the near-neighbor list (one leaf-set side
	// in Pastry).
	successorListLen = 4
	// bucketSize bounds Kademlia k-buckets: at 1k nodes the protocol
	// default of 20 multiplies convergence traffic for no routing
	// benefit at 16-bit scale.
	bucketSize = 8
	// fixFingersBatch is how many long-range table entries each chord
	// maintenance tick refreshes: one per tick needs bits·period to lap
	// a 16-entry table, and at n = 1024 that serial refresh dominated
	// converge time. Pastry and Kademlia ignore it.
	fixFingersBatch = 8
	// zipfAlpha is the workload skew exponent (the paper's hot sweep).
	zipfAlpha = 1.2
	// workers is the client concurrency of every workload phase.
	workers = 8

	// The streaming phase reads one 1 MiB object back three times, with
	// a two-chunk reader lookahead.
	streamObjectBytes = 1 << 20
	streamReads       = 3
	streamPrefetch    = 2

	// wanRegions is the WAN topology's geographic cluster count: enough
	// for a bimodal intra/inter RTT split without fragmenting the
	// sources across too many metros.
	wanRegions = 3
	// wanScale compresses the WAN topology's delays: the worst
	// trans-continental RTT is about 40ms, safely under the 250ms RPC
	// timeout, with a 20x intra/inter spread.
	wanScale = 0.12
	// wanChurnMeanLife is the mean node lifetime of the churn arm (the
	// paper's median session time): the aggregate departure rate is
	// N/wanChurnMeanLife, about one crash-and-rejoin a second at
	// n = 1024.
	wanChurnMeanLife = 900 * time.Second

	// idleWindow is how long the converged, idle overlay is watched to
	// price pure maintenance.
	idleWindow = 3 * time.Second
	// convergeTimeout bounds every oracle convergence wait.
	convergeTimeout = 10 * time.Minute
	// replSettlePeriods bounds the anti-entropy phase's wait for the
	// preload's first replicas, in replication periods.
	replSettlePeriods = 8
)

func (o Options) withDefaults() (Options, error) {
	if _, ok := factories[o.Proto]; !ok {
		return o, fmt.Errorf("livebench: unknown proto %q", o.Proto)
	}
	if o.N == 0 {
		o.N = 1024
	}
	if o.N < 8 {
		return o, fmt.Errorf("livebench: n %d below 8", o.N)
	}
	if o.Bits == 0 {
		o.Bits = 16
	}
	if uint64(o.N)*4 > uint64(1)<<o.Bits {
		return o, fmt.Errorf("livebench: n %d too dense for %d-bit space", o.N, o.Bits)
	}
	if o.AuxCount == 0 {
		o.AuxCount = 8
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// Maintenance periods scale with n: tight 25ms/5ms cluster-test timings
// are right for 56 nodes, but at 1k+ they demand more maintenance CPU
// than exists, so rounds stretch arbitrarily under scheduler
// backpressure anyway; better to pick honest periods and record them.
// The scaling keeps total maintenance load (runs/sec = n/period)
// roughly constant across n.
func (o Options) every(base, ceiling time.Duration) time.Duration {
	return min(ceiling, time.Duration((o.N+63)/64)*base)
}

func (o Options) stabilizeEvery() time.Duration  { return o.every(25*time.Millisecond, 2*time.Second) }
func (o Options) fixFingersEvery() time.Duration { return o.every(8*time.Millisecond, time.Second) }
func (o Options) auxEvery() time.Duration        { return o.every(100*time.Millisecond, 2*time.Second) }
func (o Options) replicateEvery() time.Duration  { return o.every(time.Second, 20*time.Second) }

// Result is the machine-readable outcome of one live run; field names
// are the BENCH_live.json schema (documented in docs/BENCHMARKS.md).
type Result struct {
	Proto string `json:"proto"`
	Nodes int    `json:"nodes"`
	Seed  int64  `json:"seed"`
	Bits  uint   `json:"bits"`

	AuxCount         int     `json:"aux_count"`
	Alpha            int     `json:"alpha"`
	SuccessorListLen int     `json:"successor_list_len"`
	BucketSize       int     `json:"bucket_size,omitempty"`
	Keys             int     `json:"keys"`
	ZipfAlpha        float64 `json:"zipf_alpha"`
	WarmupOps        int     `json:"warmup_ops"`
	Ops              int     `json:"ops"`
	Workers          int     `json:"workers"`
	StabilizeMS      int64   `json:"stabilize_ms"`
	FixFingersMS     int64   `json:"fix_fingers_ms"`
	FixFingersBatch  int     `json:"fix_fingers_batch"`
	AuxEveryMS       int64   `json:"aux_every_ms"`

	BootMS     int64 `json:"boot_ms"`
	ConvergeMS int64 `json:"converge_ms"`

	MeanHops float64 `json:"mean_hops"`
	P50Hops  float64 `json:"p50_hops"`
	P99Hops  float64 `json:"p99_hops"`

	MeanLatencyUS float64 `json:"mean_latency_us"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`

	OpsPerSec      float64 `json:"ops_per_sec"`
	MsgsPerSec     float64 `json:"msgs_per_sec"`
	BytesPerSec    float64 `json:"bytes_per_sec"`
	AuxHitRate     float64 `json:"aux_hit_rate"`
	LookupFailures int     `json:"lookup_failures"`

	// Maintenance overhead: per-node message and byte rates measured on
	// the converged overlay with zero application traffic.
	MaintMsgsPerSecPerNode  float64 `json:"maint_msgs_per_sec_per_node"`
	MaintBytesPerSecPerNode float64 `json:"maint_bytes_per_sec_per_node"`

	// Streaming phase (chunked large-value transfer): one object of
	// StreamObjectBytes is put through internal/chunk — wire-sized
	// chunks under derived keys plus a checksummed manifest — then
	// read back StreamReads times from random origins with lookahead
	// prefetch, byte-verified each time. TTFB covers the manifest
	// fetch plus the first chunk; MB/s is sustained over the whole
	// read including TTFB. Both are means across the reads.
	StreamObjectBytes int     `json:"stream_object_bytes"`
	StreamChunkSize   int     `json:"stream_chunk_size"`
	StreamChunks      int     `json:"stream_chunks"`
	StreamPrefetch    int     `json:"stream_prefetch"`
	StreamReads       int     `json:"stream_reads"`
	StreamTTFBUS      float64 `json:"stream_ttfb_us"`
	StreamMBPS        float64 `json:"stream_mbps"`

	// Replication data plane. The anti-entropy window is measured on the
	// preloaded, write-quiet overlay: it opens once the preload's first
	// replicas have all shipped (the cluster's diff-key count held still
	// for a full replication period) and prices two further periods,
	// so only steady-state digest rounds fall inside. ReplBytesPerSec is
	// what the digest protocol actually sent cluster-wide in that
	// window — digest requests, digest responses, and any diff or
	// fallback pushes; ReplFullPushBytesPerSec is the counterfactual
	// the owners maintained alongside it: the bytes the pre-digest
	// protocol (full push of every owned item per round) would have
	// sent for the same batches. ReplReduction is their ratio — the
	// headline anti-entropy saving, ≥5 at full scale.
	ReplicateEveryMS        int64   `json:"replicate_every_ms"`
	ReplBytesPerSec         float64 `json:"repl_bytes_per_sec"`
	ReplFullPushBytesPerSec float64 `json:"repl_full_push_bytes_per_sec"`
	ReplReduction           float64 `json:"repl_reduction"`
	// ReplFallbacks counts digest rounds that timed out and fell back
	// to a full push during the measured window (0 on a quiet overlay).
	ReplFallbacks uint64 `json:"repl_fallbacks"`

	// Hot-key phase: reads of the single hottest key under the two read
	// contracts. On the healthy overlay both arms funnel to the owner
	// (the α-race's first probe rides the warm aux pointer straight
	// there), so owner and any-copy throughput match — the any-copy
	// contract costs nothing when nothing is wrong. The degraded arm is
	// where it pays: with the owner partitioned away, owner reads would
	// time out to zero, while the race hedges past the dead owner to
	// the key's replica holders and keeps serving at real throughput.
	// ReplicaHitRate is the fraction of degraded reads answered from a
	// replica copy (cluster-wide replica-served count over reads
	// issued); it decays over a long window as stranded repair promotes
	// a replica to owner, which is the overlay healing, not a miss.
	HotReads             int     `json:"hot_reads"`
	HotDegradedReads     int     `json:"hot_degraded_reads"`
	HotOwnerOpsPerSec    float64 `json:"hot_owner_ops_per_sec"`
	HotAnyOpsPerSec      float64 `json:"hot_any_ops_per_sec"`
	HotDegradedOpsPerSec float64 `json:"hot_degraded_ops_per_sec"`
	HotFailures          int     `json:"hot_failures"`
	ReplicaHitRate       float64 `json:"replica_hit_rate"`

	// WAN latency phase. The converged overlay is moved onto
	// a seeded coordinate WAN topology (every RPC pays heterogeneous
	// propagation delay) and WANSources origins drive Zipf lookups over
	// the WANHotKeys hottest ranks, wall latency per lookup. Four arms:
	// hop-greedy aux selection (the frequency-only baseline), QoS-aware
	// selection (measured RTTs weight the objective and the delay bound
	// forces direct pointers to heavy over-bound targets), the QoS arm
	// repeated under exponential-lifetime churn (crash-and-rejoin at the
	// paper's session rate), and a flash crowd on a cold key before and
	// after one QoS aux adaptation. The headline contract — QoS p99
	// strictly below hop-greedy p99 — is enforced by Validate at full
	// scale across the document's geometries.
	WANRegions    int     `json:"wan_regions"`
	WANScale      float64 `json:"wan_scale"`
	WANSources    int     `json:"wan_sources"`
	WANHotKeys    int     `json:"wan_hot_keys"`
	WANOps        int     `json:"wan_ops"`
	WANQoSBoundMS float64 `json:"wan_qos_bound_ms"`

	WANHopP50US float64 `json:"wan_hop_p50_us"`
	WANHopP99US float64 `json:"wan_hop_p99_us"`
	WANQoSP50US float64 `json:"wan_qos_p50_us"`
	WANQoSP99US float64 `json:"wan_qos_p99_us"`

	// WANQoSSelects / WANQoSInfeasible aggregate the sources' QoS
	// selection counters over the phase: how many aux recomputations the
	// constrained optimizer decided, and how many fell back because the
	// delay bound was unsatisfiable. WANFailures counts failed lookups
	// across the hop, QoS, and flash arms (churn failures are separate —
	// crashing owners legitimately fail lookups mid-arm).
	WANQoSSelects    uint64 `json:"wan_qos_selects"`
	WANQoSInfeasible uint64 `json:"wan_qos_infeasible"`
	WANFailures      int    `json:"wan_failures"`

	WANChurnMeanLifeMS int64   `json:"wan_churn_mean_life_ms"`
	WANChurnRestarts   int     `json:"wan_churn_restarts"`
	WANChurnP50US      float64 `json:"wan_churn_p50_us"`
	WANChurnP99US      float64 `json:"wan_churn_p99_us"`
	WANChurnFailures   int     `json:"wan_churn_failures"`

	// Flash crowd: WANFlashP99US is the burst p99 while the cold key is
	// reached by routing alone; WANFlashAdaptedP99US is the same burst
	// after the sources' observers absorbed the first one and a QoS aux
	// recompute installed direct pointers.
	WANFlashReads        int     `json:"wan_flash_reads"`
	WANFlashP99US        float64 `json:"wan_flash_p99_us"`
	WANFlashAdaptedP99US float64 `json:"wan_flash_adapted_p99_us"`

	// StrandedKeys counts preloaded keys surviving only as replicas
	// (no live owner copy) at the end of the run. The replication
	// loop's stranded repair re-homes such keys within a few periods,
	// so Run fails rather than record a non-zero count: a committed
	// file always carries 0 here.
	StrandedKeys int `json:"stranded_keys"`

	Net    memnet.Stats `json:"net"`
	WallMS int64        `json:"wall_ms"`
}

// counterSnap is the per-phase aggregate of node transport counters.
type counterSnap struct {
	msgs, bytes, auxHits uint64
}

func snapshot(nodes []*node.Node) counterSnap {
	var s counterSnap
	for _, n := range nodes {
		m := n.Metrics()
		s.msgs += m.DatagramsIn + m.DatagramsOut
		s.bytes += m.BytesIn + m.BytesOut
		s.auxHits += m.AuxHits
	}
	return s
}

// replSnap is the cluster-wide aggregate of the replication data-plane
// counters.
type replSnap struct {
	out, fullPush, fallbacks, serves, diffKeys, promotions uint64
}

func replSnapshot(nodes []*node.Node) replSnap {
	var s replSnap
	for _, n := range nodes {
		m := n.Metrics()
		s.out += m.ReplBytesOut
		s.fullPush += m.ReplBytesFullPush
		s.fallbacks += m.FullPushFallbacks
		s.serves += m.ReplicaServes
		s.diffKeys += m.DiffKeysOut
		s.promotions += m.Promotions
	}
	return s
}

// overlay is one booted run: the options, the cluster, and what the
// phases share.
type overlay struct {
	Options
	*cluster.Cluster
	sched *node.BatchScheduler
	// rng is the run's sequential stream: ids, keys, the preload
	// value, then the streaming phase's object and origins.
	rng  *rand.Rand
	keys []id.ID
	// topo is the WAN phase's latency topology, and bound the QoS delay
	// bound derived from it.
	topo  *memnet.WANTopology
	bound time.Duration
}

// boot draws the run's ids and keys and starts the overlay; o must
// have its defaults applied.
func boot(o Options) (*overlay, error) {
	space := id.NewSpace(o.Bits)
	ov := &overlay{Options: o, rng: rand.New(rand.NewSource(o.Seed))}
	ids := randx.UniqueIDs(ov.rng, o.N, space.Size())
	// The key universe is 8·N keys, capped to a quarter of the id space.
	// Sizing it in multiples of N is what makes the anti-entropy figures
	// representative: each owner then digests multi-entry batches, the
	// regime the digest protocol's byte reduction is designed for (a
	// one-item overlay would price only the per-message overhead).
	for _, k := range randx.UniqueIDs(ov.rng, min(8*o.N, int(space.Size()/4)), space.Size()) {
		ov.keys = append(ov.keys, id.ID(k))
	}
	nw := memnet.New(o.Seed)
	ov.sched = node.NewBatchScheduler(0)
	// The WAN topology and the QoS delay bound derived from it exist
	// before boot: addresses are deterministic (cluster.AddrFor), so the
	// bound every node carries in its config — inert until the WAN phase
	// toggles SetAuxQoS — is a pure function of the run's seed.
	ov.topo = memnet.NewWANTopology(o.Seed, memnet.WANOptions{Regions: wanRegions, Scale: wanScale})
	ov.bound = wanQoSBound(ov.topo, ids)
	// nodeConfig reads Space and Net while Start runs.
	ov.Cluster = &cluster.Cluster{Space: space, Net: nw}
	c, err := cluster.Start(space, nw, ids, func(i int, cfg *node.Config) {
		*cfg = ov.nodeConfig(ids[i])
	})
	if err != nil {
		ov.sched.Close()
		nw.CloseAll()
		return nil, err
	}
	ov.Cluster = c
	return ov, nil
}

func (ov *overlay) close() {
	ov.Cluster.Close()
	ov.sched.Close()
	ov.Net.CloseAll()
}

// nodeConfig is the single source of node configuration: boot applies
// it per id, and the churn arm's crash-and-rejoin restarts reuse it so
// a reborn node is configured exactly like its previous life.
func (ov *overlay) nodeConfig(x uint64) node.Config {
	return node.Config{
		Space:             ov.Space,
		ID:                id.ID(x),
		Addr:              cluster.AddrFor(id.ID(x)),
		NewRing:           factories[ov.Proto],
		SuccessorListLen:  successorListLen,
		BucketSize:        bucketSize,
		AuxCount:          ov.AuxCount,
		StabilizeEvery:    ov.stabilizeEvery(),
		FixFingersEvery:   ov.fixFingersEvery(),
		FixFingersBatch:   fixFingersBatch,
		AuxEvery:          ov.auxEvery(),
		ReplicateEvery:    ov.replicateEvery(),
		AuxQoSDelayBound:  ov.bound,
		RPCTimeout:        250 * time.Millisecond,
		RPCRetries:        1,
		ItemCacheCapacity: -1, // hops must reach owners: no local copies
		Scheduler:         ov.sched,
		Listen: func(addr string) (node.PacketConn, error) {
			return ov.Net.Listen(addr)
		},
	}
}

// converge waits for the geometry's exact convergence oracle.
func (ov *overlay) converge() error {
	switch ov.Proto {
	case "pastry":
		return ov.WaitConvergedPastry(successorListLen, convergeTimeout)
	case "kademlia":
		return ov.WaitConvergedKademlia(bucketSize, convergeTimeout)
	default:
		return ov.WaitConverged(convergeTimeout)
	}
}

// outcome is one workload operation's result: hops and wall latency of
// a success, or the error of a failure.
type outcome struct {
	hops  int
	latUS int64
	err   error
}

// drive runs ops operations split across the workers, worker 0 taking
// the remainder. Worker w runs op on the contiguous index block it owns,
// with its own rng seeded from tag and w, and the outcomes come back in
// index order.
func drive(seed int64, tag string, ops int, op func(rng *rand.Rand, i int) outcome) []outcome {
	out := make([]outcome, ops)
	var wg sync.WaitGroup
	per, lo := ops/workers, 0
	for w := 0; w < workers; w++ {
		n := per
		if w == 0 {
			n += ops % workers
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(randx.DeriveSeed(seed, fmt.Sprintf("%s-%d", tag, w))))
			for i := lo; i < hi; i++ {
				out[i] = op(wrng, i)
			}
		}(w, lo, lo+n)
		lo += n
	}
	wg.Wait()
	return out
}

// lookup times one Lookup of key from origin.
func lookup(origin *node.Node, key id.ID) outcome {
	t0 := time.Now()
	_, h, err := origin.Lookup(key)
	return outcome{hops: h, latUS: time.Since(t0).Microseconds(), err: err}
}

// successes splits outcomes into the successes' hops and latencies and
// the failure count.
func successes(outs []outcome) (hops []int, lat []int64, failures int) {
	for _, o := range outs {
		if o.err != nil {
			failures++
			continue
		}
		hops = append(hops, o.hops)
		lat = append(lat, o.latUS)
	}
	return hops, lat, failures
}

// Run executes one live benchmark: boot, converge, then the idle,
// preload, anti-entropy, Zipf, hot-key, streaming, WAN and stranded-drain
// phases in that order.
func Run(o Options) (*Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	o.Logf("livebench: %s n=%d seed=%d: booting", o.Proto, o.N, o.Seed)
	ov, err := boot(o)
	if err != nil {
		return nil, err
	}
	defer ov.close()
	r := &Result{
		Proto: o.Proto, Nodes: o.N, Seed: o.Seed, Bits: o.Bits,
		AuxCount: o.AuxCount, Alpha: ov.Nodes[0].Metrics().Alpha,
		SuccessorListLen: successorListLen,
		Keys:             len(ov.keys), ZipfAlpha: zipfAlpha,
		WarmupOps: 4 * o.N, Ops: 8 * o.N, Workers: workers,
		StabilizeMS:      o.stabilizeEvery().Milliseconds(),
		FixFingersMS:     o.fixFingersEvery().Milliseconds(),
		FixFingersBatch:  fixFingersBatch,
		AuxEveryMS:       o.auxEvery().Milliseconds(),
		ReplicateEveryMS: o.replicateEvery().Milliseconds(),
		HotReads:         4 * o.N,
		BootMS:           time.Since(start).Milliseconds(),
	}
	if o.Proto == "kademlia" {
		r.BucketSize = bucketSize
	}
	o.Logf("livebench: booted in %dms, waiting for convergence", r.BootMS)

	convergeStart := time.Now()
	if err := ov.converge(); err != nil {
		return nil, fmt.Errorf("livebench: %s n=%d: %w", o.Proto, o.N, err)
	}
	r.ConvergeMS = time.Since(convergeStart).Milliseconds()
	o.Logf("livebench: converged in %dms, pricing idle maintenance", r.ConvergeMS)

	idlePhase(ov, r)
	if err := preloadPhase(ov); err != nil {
		return nil, err
	}
	antiEntropyPhase(ov, r)
	if err := zipfPhase(ov, r); err != nil {
		return nil, err
	}
	if err := hotPhase(ov, r); err != nil {
		return nil, err
	}
	if err := streamPhase(ov, r); err != nil {
		return nil, err
	}
	if err := wanPhase(ov, r); err != nil {
		return nil, err
	}
	if err := drainPhase(ov, r); err != nil {
		return nil, err
	}

	r.Net = ov.Net.Stats()
	r.WallMS = time.Since(start).Milliseconds()
	o.Logf("livebench: %s n=%d done: mean hops %.3f, aux hit rate %.3f, stream ttfb %.0fus %.2f MB/s, wall %dms",
		o.Proto, o.N, r.MeanHops, r.AuxHitRate, r.StreamTTFBUS, r.StreamMBPS, r.WallMS)
	return r, nil
}

// idlePhase prices pure maintenance: the overlay is converged and
// carries no application traffic, so every message in the window is
// maintenance.
func idlePhase(ov *overlay, r *Result) {
	before := snapshot(ov.Nodes)
	time.Sleep(idleWindow)
	after := snapshot(ov.Nodes)
	perNodeSec := idleWindow.Seconds() * float64(ov.N)
	r.MaintMsgsPerSecPerNode = float64(after.msgs-before.msgs) / perNodeSec
	r.MaintBytesPerSecPerNode = float64(after.bytes-before.bytes) / perNodeSec
}

// preloadPhase puts the key universe, one 64-byte value, through random
// origins across the workers: 8·N sequential puts would dominate the
// wall clock at full scale.
func preloadPhase(ov *overlay) error {
	val := make([]byte, 64)
	ov.rng.Read(val)
	outs := drive(ov.Seed, "preload", len(ov.keys), func(rng *rand.Rand, i int) outcome {
		if _, err := ov.Nodes[rng.Intn(len(ov.Nodes))].Put(ov.keys[i], val); err != nil {
			return outcome{err: fmt.Errorf("livebench: preload put %d (key %d): %w", i, ov.keys[i], err)}
		}
		return outcome{}
	})
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// antiEntropyPhase prices steady-state digest anti-entropy on the
// write-quiet, preloaded overlay and returns the diff keys shipped
// inside its window.
//
// The window opens only once the preload's first replicas have all
// shipped: the cluster's diff-key count must hold still for a full
// replication period. One period after the preload is not enough at
// n = 1024, where about a tenth of the keys still ship their first
// replica later; those diffs would land in the window and price a
// one-off transfer as steady state. The wait is bounded by
// replSettlePeriods periods; a window opened at the bound is logged.
// Two periods then guarantee at least one full round per owner
// regardless of ticker phase.
func antiEntropyPhase(ov *overlay, r *Result) uint64 {
	every := ov.replicateEvery()
	diffKeys := func() uint64 { return replSnapshot(ov.Nodes).diffKeys }
	if !settle(every, replSettlePeriods, diffKeys) {
		ov.Logf("livebench: first replicas still shipping after %v, opening the anti-entropy window anyway", replSettlePeriods*every)
	}
	ov.Logf("livebench: %d keys preloaded, pricing anti-entropy (%v window)", len(ov.keys), 2*every)

	before := replSnapshot(ov.Nodes)
	start := time.Now()
	time.Sleep(2 * every)
	after := replSnapshot(ov.Nodes)
	secs := time.Since(start).Seconds()
	r.ReplBytesPerSec = float64(after.out-before.out) / secs
	r.ReplFullPushBytesPerSec = float64(after.fullPush-before.fullPush) / secs
	r.ReplFallbacks = after.fallbacks - before.fallbacks
	if d := after.out - before.out; d > 0 {
		r.ReplReduction = float64(after.fullPush-before.fullPush) / float64(d)
	}
	shipped := after.diffKeys - before.diffKeys
	ov.Logf("livebench: anti-entropy %.0f B/s vs %.0f B/s full-push (%.1fx reduction, %d fallbacks, %d diff keys)",
		r.ReplBytesPerSec, r.ReplFullPushBytesPerSec, r.ReplReduction, r.ReplFallbacks, shipped)
	return shipped
}

// settle sleeps one step at a time until count holds still across a
// whole step, for at most max steps, and reports whether it did.
func settle(step time.Duration, max int, count func() uint64) bool {
	prev := count()
	for i := 0; i < max; i++ {
		time.Sleep(step)
		cur := count()
		if cur == prev {
			return true
		}
		prev = cur
	}
	return false
}

// zipfPhase is the measured lookup workload: rank r's popularity ∝
// r^-zipfAlpha, ranks assigned to keys in preload order (the mapping is
// arbitrary but fixed by the seed). Unmeasured warmup lookups first
// feed each origin's frequency observer, so aux recomputation has a
// distribution to optimize before measurement.
func zipfPhase(ov *overlay, r *Result) error {
	alias := randx.NewAlias(randx.ZipfWeights(len(ov.keys), zipfAlpha))
	op := func(rng *rand.Rand, _ int) outcome {
		origin := ov.Nodes[rng.Intn(len(ov.Nodes))]
		return lookup(origin, ov.keys[alias.Sample(rng)])
	}
	ov.Logf("livebench: warming up (%d ops)", r.WarmupOps)
	drive(ov.Seed, "warmup", r.WarmupOps, op)
	// Let aux recomputation see the warmed-up window before measuring:
	// two aux periods cover a rotation plus a recompute.
	time.Sleep(2 * ov.auxEvery())
	ov.Logf("livebench: warmed up, measuring (%d ops)", r.Ops)

	before := snapshot(ov.Nodes)
	start := time.Now()
	hops, latencies, failures := successes(drive(ov.Seed, "zipf", r.Ops, op))
	secs := time.Since(start).Seconds()
	after := snapshot(ov.Nodes)

	r.LookupFailures = failures
	if len(hops) == 0 {
		return fmt.Errorf("livebench: %s n=%d: every measured lookup failed", ov.Proto, ov.N)
	}
	r.MeanHops = meanInt(hops)
	r.P50Hops = percentileInt(hops, 50)
	r.P99Hops = percentileInt(hops, 99)
	r.MeanLatencyUS = meanInt64(latencies)
	r.P50LatencyUS = percentileInt64(latencies, 50)
	r.P99LatencyUS = percentileInt64(latencies, 99)
	r.OpsPerSec = float64(r.Ops) / secs
	r.MsgsPerSec = float64(after.msgs-before.msgs) / secs
	r.BytesPerSec = float64(after.bytes-before.bytes) / secs
	r.AuxHitRate = float64(after.auxHits-before.auxHits) / float64(r.Ops)
	return nil
}

// hotPhase prices the two read contracts on the single hottest key
// (Zipf rank 0, so its aux pointers are warm from the measured
// workload). Two healthy arms first: owner reads (Get — resolve the
// owner, fetch there) and any-copy reads (FindValue — race find-value
// probes, take the first copy a holder answers with). On a healthy
// overlay both funnel to the owner, so their throughputs match: the
// weaker contract costs nothing when nothing is wrong. The third arm
// partitions the owner away and repeats the any-copy reads — the
// regime the replica-served read path exists for: owner reads would
// time out to zero, while the race hedges past the dead owner to the
// replica holders the neighborhood advertisement names and keeps
// serving at real throughput, with ReplicaHitRate of the reads
// answered from replica copies. The partition is healed and the
// overlay re-converged against the oracle before the next phase.
// Origins skip the key's own holders so every read pays the network.
func hotPhase(ov *overlay, r *Result) error {
	hot := ov.keys[0]
	arm := func(reads int, read func(*node.Node) error) (float64, int) {
		start := time.Now()
		outs := drive(ov.Seed, "hot", reads, func(rng *rand.Rand, _ int) outcome {
			origin := ov.Nodes[rng.Intn(len(ov.Nodes))]
			if _, ok := origin.ItemDetail(hot); ok {
				return outcome{} // holders answer locally; not a priced read
			}
			// One client-level retry before a read counts as failed: the
			// kv client gives its callers the same budget, and a single
			// lost race under an active partition is availability noise.
			// The retry's cost stays in the arm's wall clock, so ops/sec
			// still pays for it.
			err := read(origin)
			if err != nil {
				err = read(origin)
			}
			return outcome{err: err}
		})
		_, _, failures := successes(outs)
		return float64(reads) / time.Since(start).Seconds(), failures
	}
	ownerRead := func(n *node.Node) error {
		_, err := n.Get(hot)
		return err
	}
	anyRead := func(n *node.Node) error {
		_, err := n.FindValue(hot)
		return err
	}

	ownerOps, ownerFail := arm(r.HotReads, ownerRead)
	anyOps, anyFail := arm(r.HotReads, anyRead)

	// The degraded arm is short: each read pays hedged probes past the
	// dead owner, so a full-length arm would dominate the bench's wall
	// clock without adding signal.
	degradedReads := max(64, r.HotReads/8)
	var ownerNode *node.Node
	for _, n := range ov.Nodes {
		if it, ok := n.ItemDetail(hot); ok && it.Owned {
			ownerNode = n
			break
		}
	}
	if ownerNode == nil {
		return fmt.Errorf("livebench: hot key %d has no live owner before the degraded arm", hot)
	}
	ov.Net.Partition("livebench-hot-owner", ownerNode.Addr())
	before := replSnapshot(ov.Nodes)
	degradedOps, degradedFail := arm(degradedReads, anyRead)
	after := replSnapshot(ov.Nodes)
	ov.Net.Heal("livebench-hot-owner")
	if err := ov.converge(); err != nil {
		return fmt.Errorf("livebench: re-converge after the degraded hot arm: %w", err)
	}

	r.HotDegradedReads = degradedReads
	r.HotOwnerOpsPerSec = ownerOps
	r.HotAnyOpsPerSec = anyOps
	r.HotDegradedOpsPerSec = degradedOps
	r.HotFailures = ownerFail + anyFail + degradedFail
	r.ReplicaHitRate = float64(after.serves-before.serves) / float64(degradedReads)
	// A replica holder that promotes the key to owned during the arm
	// (its replication round finds it responsible once the partitioned
	// owner is dropped) answers the rest as owner, not as replica.
	ov.Logf("livebench: hot key %d: owner %.0f ops/s, any-copy %.0f ops/s, owner-down any-copy %.0f ops/s, replica hit rate %.3f (%d failures, %d promotions)",
		hot, ownerOps, anyOps, degradedOps, r.ReplicaHitRate, r.HotFailures, after.promotions-before.promotions)
	return nil
}

// streamPhase puts one large object through the chunk layer and reads
// it back sequentially from fresh random origins, recording mean TTFB
// and sustained throughput. Chunk fetches ride the normal lookup path
// (FindValue), so prefetch lookahead feeds the origins' frequency
// observers exactly like foreground traffic.
func streamPhase(ov *overlay, r *Result) error {
	storeOver := func(n *node.Node) (*chunk.Store, error) {
		return chunk.New(chunk.FuncKV{
			PutFunc: func(key id.ID, value []byte) error {
				_, err := n.Put(key, value)
				return err
			},
			GetFunc: func(key id.ID) ([]byte, int, error) {
				res, err := n.FindValue(key)
				return res.Value, res.Hops, err
			},
		}, chunk.Options{Space: ov.Space, Window: 8, Prefetch: streamPrefetch, Retries: 3,
			// A chunk key can collide with a preloaded workload key in
			// the bench's small id space; the chunk put then bumps that
			// key's version, and until the next digest round an
			// any-copy read can be served the bounded-stale preload
			// value. Escalate digest mismatches to an owner read.
			StrongGet: func(key id.ID) ([]byte, int, error) {
				res, err := n.Get(key)
				return res.Value, res.Hops, err
			}})
	}
	obj := make([]byte, streamObjectBytes)
	ov.rng.Read(obj)
	root := ov.Space.Hash([]byte("livebench-stream-object"))
	ws, err := storeOver(ov.Nodes[ov.rng.Intn(len(ov.Nodes))])
	if err != nil {
		return err
	}
	m, err := ws.PutObject(root, obj)
	if err != nil {
		return fmt.Errorf("livebench: stream put: %w", err)
	}
	r.StreamObjectBytes = streamObjectBytes
	r.StreamChunkSize = int(m.ChunkSize)
	r.StreamChunks = m.Chunks()
	r.StreamPrefetch = streamPrefetch
	r.StreamReads = streamReads
	ov.Logf("livebench: streaming %d bytes in %d chunks, %d reads", m.TotalLen, m.Chunks(), streamReads)

	var ttfbSum, mbpsSum float64
	for i := 0; i < streamReads; i++ {
		rs, err := storeOver(ov.Nodes[ov.rng.Intn(len(ov.Nodes))])
		if err != nil {
			return err
		}
		readStart := time.Now()
		rd, err := rs.NewReader(root)
		if err != nil {
			return fmt.Errorf("livebench: stream read %d: open: %w", i, err)
		}
		got, err := io.ReadAll(rd)
		elapsed := time.Since(readStart)
		rd.Close()
		if err != nil {
			return fmt.Errorf("livebench: stream read %d: %w", i, err)
		}
		if !bytes.Equal(got, obj) {
			return fmt.Errorf("livebench: stream read %d: bytes differ from the stored object", i)
		}
		st := rd.Stats()
		ttfbSum += float64(st.TTFB.Microseconds())
		mbpsSum += float64(st.BytesRead) / (1 << 20) / elapsed.Seconds()
	}
	r.StreamTTFBUS = ttfbSum / streamReads
	r.StreamMBPS = mbpsSum / streamReads
	return nil
}

// wanQoSBound derives the QoS delay bound from the topology before any
// node boots: sample RTTs between deterministic member addresses,
// classify each pair intra- or inter-region, and split the gap between
// the slowest intra RTT and the fastest inter RTT. A contact past the
// bound is on the far side of a long-haul link, which is exactly the
// set the QoS selector should force direct pointers to.
func wanQoSBound(t *memnet.WANTopology, ids []uint64) time.Duration {
	sample := ids
	if len(sample) > 96 {
		sample = sample[:96]
	}
	maxIntra, minInter := time.Duration(0), time.Duration(1)<<62
	for i := 0; i < len(sample); i++ {
		a := cluster.AddrFor(id.ID(sample[i]))
		for j := i + 1; j < len(sample); j++ {
			b := cluster.AddrFor(id.ID(sample[j]))
			rtt := t.RTT(a, b)
			if t.RegionOf(a) == t.RegionOf(b) {
				maxIntra = max(maxIntra, rtt)
			} else {
				minInter = min(minInter, rtt)
			}
		}
	}
	if minInter > time.Duration(1)<<61 {
		// Degenerate sample (every member hashed into one region): no
		// long-haul link exists for the bound to separate.
		return maxIntra * 2
	}
	return (maxIntra + minInter) / 2
}

// wanPhase moves the converged overlay onto the seeded WAN topology and
// prices auxiliary selection policy under real heterogeneous latency:
// hop-greedy arm, QoS arm (the source nodes — the only nodes whose RTT
// tables the workload warms — flip to QoS-aware selection and routing),
// the QoS arm under paper-rate churn, and a flash crowd on a cold key
// before and after one aux adaptation. The topology is removed and the
// overlay re-converged before the stranded drain.
func wanPhase(ov *overlay, r *Result) error {
	r.WANRegions, r.WANScale = wanRegions, wanScale
	// Arms toggle QoS on the sources only, so hop-greedy and QoS
	// measurements route through an otherwise identical overlay. The hot
	// working set is twice the aux budget, so selection policy decides
	// which half of it gets direct pointers.
	r.WANSources = min(32, ov.N/4)
	r.WANHotKeys = min(2*ov.AuxCount, len(ov.keys))
	r.WANOps = 2 * ov.N
	r.WANQoSBoundMS = float64(ov.bound) / float64(time.Millisecond)
	r.WANChurnMeanLifeMS = wanChurnMeanLife.Milliseconds()
	r.WANFlashReads = ov.N

	rng := rand.New(rand.NewSource(randx.DeriveSeed(ov.Seed, "wan")))
	perm := rng.Perm(len(ov.Nodes))
	srcIdx := make(map[int]bool, r.WANSources)
	sources := make([]*node.Node, r.WANSources)
	for i := range sources {
		srcIdx[perm[i]] = true
		sources[i] = ov.Nodes[perm[i]]
	}
	hot := ov.keys[:r.WANHotKeys]
	hotAlias := randx.NewAlias(randx.ZipfWeights(len(hot), zipfAlpha))

	ov.Net.SetTopology(ov.topo)
	ov.Logf("livebench: WAN topology on (%d regions, scale %.2f, QoS bound %.1fms), warming %d sources over %d hot keys",
		wanRegions, wanScale, r.WANQoSBoundMS, len(sources), len(hot))

	// Warm + prime: each source observes a Zipf-shaped slice of the hot
	// set (feeding its frequency window) and actively measures each hot
	// owner — resolve once, then ping. On Chord a lookup resolves at the
	// owner's predecessor, so without the active measurement step a
	// source would never hold an RTT estimate for the owners themselves,
	// and the delay bound would have nothing to judge.
	{
		var wg sync.WaitGroup
		for si, s := range sources {
			wg.Add(1)
			go func(si int, s *node.Node) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(randx.DeriveSeed(ov.Seed, fmt.Sprintf("wan-warm-%d", si))))
				for i := 0; i < 4*len(hot); i++ {
					s.Lookup(hot[hotAlias.Sample(wrng)])
				}
				for _, k := range hot {
					ct, _, err := s.Lookup(k)
					if err != nil {
						continue
					}
					s.Ping(ct.Addr)
					s.Ping(ct.Addr)
				}
			}(si, s)
		}
		wg.Wait()
	}

	// measure drives ops lookups from the sources and returns the
	// successes' wall latencies (µs) plus the failure count.
	measure := func(tag string, ops int, keyFor func(*rand.Rand) id.ID) ([]int64, int, error) {
		outs := drive(ov.Seed, "wan-"+tag, ops, func(rng *rand.Rand, _ int) outcome {
			return lookup(sources[rng.Intn(len(sources))], keyFor(rng))
		})
		_, latencies, failures := successes(outs)
		if len(latencies) == 0 {
			return nil, failures, fmt.Errorf("livebench: WAN %s arm: every lookup failed", tag)
		}
		return latencies, failures, nil
	}
	hotKey := func(wrng *rand.Rand) id.ID { return hot[hotAlias.Sample(wrng)] }
	recompute := func(nodes []*node.Node) {
		for _, s := range nodes {
			if _, err := s.RecomputeAux(); err != nil {
				ov.Logf("livebench: WAN aux recompute on %d: %v", s.ID(), err)
			}
		}
	}

	// Hop-greedy arm: aux recomputed from the warmed observers with the
	// default frequency-only objective.
	recompute(ov.Nodes)
	hopLat, hopFail, err := measure("hop", r.WANOps, hotKey)
	if err != nil {
		return err
	}
	r.WANHopP50US = percentileInt64(hopLat, 50)
	r.WANHopP99US = percentileInt64(hopLat, 99)
	ov.Logf("livebench: WAN hop-greedy arm: p50 %.0fus p99 %.0fus (%d failures)", r.WANHopP50US, r.WANHopP99US, hopFail)

	// QoS arm: same workload, QoS flipped on the sources only. The
	// sources are where the latency plane has data — their warm-up fed
	// both the frequency windows and the RTT tables for hot owners and
	// recurring walk intermediates — so they both re-select aux under
	// the cost/bound objective and route each lookup step by proximity
	// (qosProbeIndex: a near-in-distance candidate with a known-cheap
	// link is probed ahead of the geometry's blind pick). Every
	// intermediate node keeps the exact hop-greedy aux state of the
	// previous arm, so the arms differ in the sources' policy alone —
	// and the other ~n nodes don't burn the machine's CPU budget
	// rerunning the QoS optimizer every aux tick, which would inflate
	// the very wall-clock percentiles under measurement.
	for _, s := range sources {
		s.SetAuxQoS(true)
	}
	recompute(sources)
	qosLat, qosFail, err := measure("qos", r.WANOps, hotKey)
	if err != nil {
		return err
	}
	r.WANQoSP50US = percentileInt64(qosLat, 50)
	r.WANQoSP99US = percentileInt64(qosLat, 99)
	ov.Logf("livebench: WAN QoS arm: p50 %.0fus p99 %.0fus (%d failures)", r.WANQoSP50US, r.WANQoSP99US, qosFail)

	// Churn arm: the QoS workload again, now with nodes crashing and
	// rejoining at the aggregate rate n/meanLife of exponential
	// lifetimes. A victim rejoins under a FRESH id (and thus a fresh
	// derived address): a departed peer's identity doesn't come back in
	// a real overlay, and an instant same-id reincarnation is also a
	// trap — the hot set's position-aliased aux pointers all over the
	// overlay still name the victim's old position, so every join walk
	// for that id funnels into the reborn ring-of-one node, which then
	// answers Done-with-self and claims the keyspace (soak sidesteps
	// the same trap with delayed id recycling). The convergence oracle
	// derives the ideal ring from ov.Nodes at call time, so swapping the
	// slot's id keeps the post-phase re-converge honest. Sources are
	// exempt (they hold the selection state under test); restarted
	// nodes stay hop-greedy like every other intermediate.
	stopChurn := make(chan struct{})
	churnErr := make(chan error, 1)
	var (
		churnWG  sync.WaitGroup
		restarts int
	)
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		crng := rand.New(rand.NewSource(randx.DeriveSeed(ov.Seed, "wan-churn")))
		// Fresh rejoin ids must dodge every id ever used for a node or a
		// key — node ids for ring uniqueness, key ids because a node
		// sitting exactly AT a key's position would shadow the
		// position-aliased aux entries pointing at the key's owner.
		used := make(map[uint64]bool, len(ov.Nodes)+len(ov.keys))
		for _, n := range ov.Nodes {
			used[uint64(n.ID())] = true
		}
		for _, k := range ov.keys {
			used[uint64(k)] = true
		}
		freshID := func() uint64 {
			for {
				x := crng.Uint64() % ov.Space.Size()
				if !used[x] {
					used[x] = true
					return x
				}
			}
		}
		for {
			gap := time.Duration(crng.ExpFloat64() * float64(wanChurnMeanLife) / float64(len(ov.Nodes)))
			select {
			case <-stopChurn:
				return
			case <-time.After(gap):
			}
			vi := crng.Intn(len(ov.Nodes))
			if srcIdx[vi] || vi == 0 {
				continue // the lifetime draw hit an exempt node
			}
			ov.Nodes[vi].Close()
			time.Sleep(150 * time.Millisecond) // downtime before the rejoin
			x := freshID()
			var nn *node.Node
			var err error
			for attempt := 0; attempt < 5; attempt++ {
				if nn, err = node.Start(ov.nodeConfig(x)); err == nil {
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			if err != nil {
				churnErr <- fmt.Errorf("livebench: WAN churn: restart %d: %w", x, err)
				return
			}
			for attempt := 0; attempt < 3; attempt++ {
				if err = nn.Join(sources[crng.Intn(len(sources))].Addr()); err == nil {
					break
				}
			}
			if err != nil {
				nn.Close()
				churnErr <- fmt.Errorf("livebench: WAN churn: rejoin %d: %w", x, err)
				return
			}
			ov.Nodes[vi] = nn
			restarts++
		}
	}()
	churnLat, churnFail, err := measure("churn", r.WANOps, hotKey)
	close(stopChurn)
	churnWG.Wait()
	if err != nil {
		return err
	}
	select {
	case err := <-churnErr:
		return err
	default:
	}
	r.WANChurnRestarts = restarts
	r.WANChurnP50US = percentileInt64(churnLat, 50)
	r.WANChurnP99US = percentileInt64(churnLat, 99)
	r.WANChurnFailures = churnFail
	ov.Logf("livebench: WAN churn arm: %d restarts, p50 %.0fus p99 %.0fus (%d failures)",
		restarts, r.WANChurnP50US, r.WANChurnP99US, churnFail)

	// Flash crowd: a cold mid-rank key is hammered by every source. The
	// first burst pays routing (no aux pointer names a cold key); then
	// each source actively measures the flash owner and recomputes, and
	// the second burst shows what one QoS adaptation buys.
	flash := ov.keys[len(ov.keys)/2]
	flashKey := func(*rand.Rand) id.ID { return flash }
	flashLat, flashFail1, err := measure("flash", r.WANFlashReads, flashKey)
	if err != nil {
		return err
	}
	r.WANFlashP99US = percentileInt64(flashLat, 99)
	for _, s := range sources {
		if ct, _, err := s.Lookup(flash); err == nil {
			s.Ping(ct.Addr)
			s.Ping(ct.Addr)
		}
	}
	recompute(sources)
	adaptedLat, flashFail2, err := measure("flash-adapted", r.WANFlashReads, flashKey)
	if err != nil {
		return err
	}
	r.WANFlashAdaptedP99US = percentileInt64(adaptedLat, 99)
	ov.Logf("livebench: WAN flash crowd on key %d: p99 %.0fus cold, %.0fus adapted",
		flash, r.WANFlashP99US, r.WANFlashAdaptedP99US)

	for _, s := range ov.Nodes {
		m := s.Metrics()
		r.WANQoSSelects += m.AuxQoSSelects
		r.WANQoSInfeasible += m.AuxQoSInfeasible
		s.SetAuxQoS(false)
	}
	r.WANFailures = hopFail + qosFail + flashFail1 + flashFail2
	if r.WANQoSSelects == 0 {
		return fmt.Errorf("livebench: WAN phase: the QoS selector never engaged (bound %.1fms)", r.WANQoSBoundMS)
	}

	ov.Net.SetTopology(nil)
	if err := ov.converge(); err != nil {
		return fmt.Errorf("livebench: re-converge after the WAN phase: %w", err)
	}
	return nil
}

// drainPhase waits out the stranded repair: keys surviving only as
// replicas are re-homed by the replication loop within a few periods (a
// replica must age 3 periods before it counts as stranded, then one
// more round pushes it to the resolved owner). A key still stranded
// after the drain window is a durability hole, and the bench fails
// rather than record it.
func drainPhase(ov *overlay, r *Result) error {
	every := ov.replicateEvery()
	deadline := time.Now().Add(8 * every)
	for {
		r.StrandedKeys = countStranded(ov.Nodes, ov.keys)
		if r.StrandedKeys == 0 || time.Now().After(deadline) {
			break
		}
		ov.Logf("livebench: %d keys stranded, waiting for repair", r.StrandedKeys)
		time.Sleep(every / 2)
	}
	if r.StrandedKeys > 0 {
		return fmt.Errorf("livebench: %s n=%d: %d keys still stranded after the repair drain window",
			ov.Proto, ov.N, r.StrandedKeys)
	}
	return nil
}

// countStranded tallies preloaded keys that survive only as replicas:
// copies exist but no live node holds the key as owner, so overlay
// GETs miss while the bytes survive (soak's countStranded, applied to
// the bench's key universe).
func countStranded(nodes []*node.Node, keys []id.ID) int {
	stranded := 0
	for _, k := range keys {
		owners, copies := 0, 0
		for _, n := range nodes {
			if it, ok := n.ItemDetail(k); ok {
				copies++
				if it.Owned {
					owners++
				}
			}
		}
		if owners == 0 && copies > 0 {
			stranded++
		}
	}
	return stranded
}

func meanInt(xs []int) float64 {
	total := 0
	for _, x := range xs {
		total += x
	}
	return float64(total) / float64(len(xs))
}

func meanInt64(xs []int64) float64 {
	total := int64(0)
	for _, x := range xs {
		total += x
	}
	return float64(total) / float64(len(xs))
}

func percentileInt(xs []int, p int) float64 {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return float64(s[(len(s)-1)*p/100])
}

func percentileInt64(xs []int64, p int) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[(len(s)-1)*p/100])
}
