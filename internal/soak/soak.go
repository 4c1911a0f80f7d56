// Package soak is the deterministic churn soak harness: a
// seed-replayable scenario engine that drives a live memnet cluster
// through randomized event schedules — joins, graceful leaves,
// crash-stops, partitions and heals, loss/latency ramps, and a
// Zipf-keyed KV + lookup workload, including chunked large objects —
// and, at every quiescent window, checks the protocol-generic
// invariants every routing geometry must uphold: single owned
// authority per key, no acknowledged write lost while a live holder
// for it survives, repair of stranded replicas (no key left ownerless
// while copies survive), routing-state convergence against the
// cluster oracle, bounded eviction of stale auxiliary pointers, and
// goroutine-leak accounting at teardown.
//
// # Determinism and replay
//
// Everything random derives from one seed: node ids, the key universe,
// the event schedule, and memnet's fault sampling. The schedule is
// generated up front as a pure function of the seed (schedule.go), and
// event selectors are resolved against live state at execution time,
// so replaying a seed replays the same scripted intent even though the
// overlay's responses are only statistically deterministic (memnet's
// documented caveat: goroutine interleaving decides which send draws
// which random number). A verdict that reports a violation embeds the
// full schedule, and re-running with the same options reproduces the
// same scenario.
//
// # Time
//
// The engine never sleeps ad hoc: all waiting is quantized through the
// step clock (clock.go), so budgets — convergence, settling, eviction
// bounds — are counted in steps and reported in the verdict.
package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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

// Options parameterizes a soak run. The zero value of every field but
// Proto gets a sensible default.
type Options struct {
	// Proto selects the routing geometry: "chord", "pastry", or
	// "kademlia".
	Proto string
	// Seed drives every random choice of the run.
	Seed int64
	// Events is the schedule length (default 200).
	Events int
	// Nodes is the initial cluster size (default 16).
	Nodes int
	// Keys is the key-universe size; key popularity is Zipf(1.2)
	// (default 32).
	Keys int
	// QuiesceEvery inserts a quiescent checker window every that many
	// events, plus one final window (default 50).
	QuiesceEvery int
	// AuxCount is each node's auxiliary-neighbor budget (default 4).
	AuxCount int
	// Tick is the step clock's quantum (default 10ms).
	Tick time.Duration
	// WAN, when true, installs a seeded WAN latency topology over the
	// whole run (memnet.NewWANTopology at soakWANScale), so every RPC —
	// maintenance, workload, chaos recovery — pays realistic, per-link
	// heterogeneous propagation delay and the RTT estimator runs hot for
	// the latency-sane invariant to judge.
	WAN bool
	// Logf, when non-nil, receives progress lines (the runner's -v).
	Logf func(format string, args ...any)
}

// Fixed run parameters: every node's replication factor (copies per
// item, owner included) and near-neighbor list length, and the step
// budgets of the post-heal convergence wait and of each data-plane
// checker's polling per window.
const (
	replicationFactor = 2
	successorListLen  = 4
	convergeSteps     = 3000
	settleSteps       = 1000
)

func (o Options) withDefaults() (Options, error) {
	if _, ok := convergeChecks[o.Proto]; !ok {
		return o, fmt.Errorf("soak: unknown proto %q", o.Proto)
	}
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&o.Events, 200)
	def(&o.Nodes, 16)
	def(&o.Keys, 32)
	def(&o.QuiesceEvery, 50)
	def(&o.AuxCount, 4)
	if o.Tick == 0 {
		o.Tick = 10 * time.Millisecond
	}
	if o.Nodes < 4 {
		return o, fmt.Errorf("soak: need at least 4 initial nodes, got %d", o.Nodes)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o, nil
}

// convergeChecks maps a protocol name to its convergence oracle — the
// only protocol-specific seam in the harness. A third geometry plugs
// in by adding an entry (see DESIGN.md §7); every other checker is
// already generic over ring.Routing and the node API.
var convergeChecks = map[string]func(space id.Space, nodes []*node.Node, half int) error{
	"chord": func(space id.Space, nodes []*node.Node, _ int) error {
		return cluster.CheckChordConverged(space, nodes)
	},
	"pastry": cluster.CheckPastryConverged,
	"kademlia": func(space id.Space, nodes []*node.Node, _ int) error {
		return cluster.CheckKademliaConverged(space, nodes, kadring.DefaultBucketSize)
	},
}

// owners mirrors convergeChecks with each protocol's ownership oracle:
// the member responsible for a key, given the live membership in ring
// order.
var owners = map[string]func(space id.Space, ring []id.ID, key id.ID) id.ID{
	"chord":  func(_ id.Space, ring []id.ID, key id.ID) id.ID { return cluster.Owner(ring, key) },
	"pastry": cluster.OwnerPastry,
	"kademlia": func(_ id.Space, ring []id.ID, key id.ID) id.ID {
		return cluster.OwnerKademlia(ring, key)
	},
}

// ringFactories mirrors convergeChecks for node construction.
var ringFactories = map[string]ring.Factory{
	"chord":    chordring.New,
	"pastry":   pastryring.New,
	"kademlia": kadring.New,
}

// Violation is one invariant failure, attributed to the quiescent
// window (or the mid-run event) that detected it.
type Violation struct {
	Window int    `json:"window"`
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

// Verdict is the machine-readable outcome of a run.
type Verdict struct {
	Proto         string      `json:"proto"`
	Seed          int64       `json:"seed"`
	EventsPlanned int         `json:"events_planned"`
	EventsRun     int         `json:"events_run"`
	Skipped       int         `json:"skipped"` // events the live state could not honor
	Windows       int         `json:"windows"`
	Steps         int         `json:"steps"`
	OK            bool        `json:"ok"`
	Violations    []Violation `json:"violations,omitempty"`

	// Workload outcomes. Op failures are not violations: under loss,
	// partitions, and churn, timed-out operations are the network
	// doing its job. The invariants say what must hold regardless.
	Puts       int `json:"puts"`
	Gets       int `json:"gets"`
	PutLarges  int `json:"put_larges"`
	GetLarges  int `json:"get_larges"`
	Lookups    int `json:"lookups"`
	OpFailures int `json:"op_failures"`
	// WrongOwner counts lookups answered with an owner other than the
	// live membership's oracle owner. Under churn and partitions that is
	// the network in motion; in a quiescent window it is a violation.
	WrongOwner int `json:"wrong_owner"`
	Joins      int `json:"joins"`
	Leaves     int `json:"leaves"`
	Crashes    int `json:"crashes"`
	Partitions int `json:"partitions"`
	Heals      int `json:"heals"`
	Ramps      int `json:"ramps"`
	// Forfeits counts acked keys whose durability claim was released
	// because their last ≥ack holder crashed (quorum death) or a
	// graceful leave could not confirm coverage — the ledger's
	// "while its owner-or-replica set has a live quorum" clause.
	Forfeits int `json:"forfeits"`
	// Stranded counts keys that survive only as replicas: the ring
	// owner holds no copy (a lost handoff), so Gets through the
	// overlay miss while the data still exists. The replication
	// loop's stranded-repair pass is required to drain these, so a
	// key still stranded after the settle budget is a violation; the
	// count here records the residue at judgement time (0 on a
	// passing run).
	Stranded int `json:"stranded"`

	// RTTSamples is the cluster-wide count of RTT measurements folded
	// into contact estimators by the nodes still live at the end — the
	// latency plane's "did it actually run" signal (always positive: any
	// correlated RPC is a sample, with or without a WAN topology).
	RTTSamples uint64 `json:"rtt_samples"`

	MeanLookupHops float64      `json:"mean_lookup_hops"`
	MeanOpMicros   float64      `json:"mean_op_micros"`
	FinalNodes     int          `json:"final_nodes"`
	Net            memnet.Stats `json:"net"`
	WallMS         int64        `json:"wall_ms"`

	// Schedule is attached only when a violation occurred, so the
	// failing scenario is fully specified next to its verdict; the
	// same seed regenerates it identically.
	Schedule []Event `json:"schedule,omitempty"`
}

// keyState is the ledger entry for one key: every value ever offered
// in a put (acknowledged or not — an unacked put may still have
// landed), plus the latest acknowledged write the durability checker
// holds the cluster to.
type keyState struct {
	written    map[string]bool
	ackVersion uint64
	acked      bool
	// forfeited releases the durability claim: the key's last known
	// ≥ack holder died without a surviving copy, so "no acknowledged
	// write lost" no longer applies until the next acked put.
	forfeited bool
}

// engine is one run's mutable state. Single-goroutine: events execute
// strictly in schedule order.
type engine struct {
	o     Options
	space id.Space
	nw    *memnet.Network
	clock *Clock
	// sched is the shared maintenance scheduler every node runs on: one
	// timer heap and a bounded worker pool instead of four ticker
	// goroutines per node, which is what keeps 1k-node scenarios from
	// drowning the runtime in sleeping goroutines.
	sched *node.BatchScheduler

	live []*node.Node
	pool []id.ID // FIFO of ids available to join (fresh first, churned-out recycled at the back)
	keys []id.ID // key universe, index-aligned with Event.Key
	// largeRoots is the root-key universe of the chunked large-object
	// workload, distinct from keys so a plain put cannot script over a
	// manifest; largeWritten mirrors keyState.written at whole-object
	// granularity (chunk and manifest keys themselves live in the main
	// ledger and are judged by the per-key invariants).
	largeRoots   []id.ID
	largeWritten map[id.ID]map[string]bool

	ledger map[id.ID]*keyState
	parts  []string // active partition names, in raise order

	hopCount, hopTotal int
	opMicros           int64
	opCount            int

	v        *Verdict
	schedule []Event
	halted   bool
}

// Run executes one soak scenario and returns its verdict. The error
// return is reserved for harness-level failures (bad options, boot
// failure); invariant violations are reported in the verdict.
func Run(o Options) (*Verdict, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	baseline := runtime.NumGoroutine()
	start := time.Now()

	rng := rand.New(rand.NewSource(o.Seed))
	space := id.NewSpace(16)
	// The join pool holds fresh ids sized to the expected join count;
	// churned-out ids are recycled behind them (FIFO), so a rejoin of
	// a recently crashed id — which peers may still hold in stale
	// routing state — happens only after repair has had time to purge
	// its former incarnation.
	poolExtra := o.Nodes/2 + o.Events/8
	if cap := int(space.Size()/4) - o.Nodes; poolExtra > cap {
		poolExtra = cap
	}
	ids := randx.UniqueIDs(rng, o.Nodes+poolExtra, space.Size())
	keyIDs := randx.UniqueIDs(rng, o.Keys, space.Size())
	// A handful of hot large-object roots: few enough that get-large
	// events usually find a written object to verify against.
	largeCount := o.Keys / 8
	if largeCount < 2 {
		largeCount = 2
	}
	largeIDs := randx.UniqueIDs(rng, largeCount, space.Size())

	nw := memnet.New(o.Seed)
	if o.WAN {
		// Compressed WAN: the full inter-region structure (heterogeneous
		// access links, metro vs long-haul regimes) at 1/50 scale, so the
		// worst link RTT (~6ms) stays well inside the 100ms RPC timeout
		// and the step-clock budgets sized for a LAN-speed soak.
		nw.SetTopology(memnet.NewWANTopology(o.Seed, memnet.WANOptions{Scale: soakWANScale}))
	}
	e := &engine{
		o:            o,
		space:        space,
		nw:           nw,
		clock:        NewClock(o.Tick),
		sched:        node.NewBatchScheduler(0),
		ledger:       make(map[id.ID]*keyState),
		largeWritten: make(map[id.ID]map[string]bool),
		v:            &Verdict{Proto: o.Proto, Seed: o.Seed, EventsPlanned: o.Events},
	}
	for _, k := range keyIDs {
		e.keys = append(e.keys, id.ID(k))
	}
	for _, k := range largeIDs {
		e.largeRoots = append(e.largeRoots, id.ID(k))
	}
	for _, x := range ids[o.Nodes:] {
		e.pool = append(e.pool, id.ID(x))
	}
	e.schedule = Generate(rng, o.Events, o.Keys)

	// Boot the initial membership; a boot failure is a harness error,
	// not a scenario outcome.
	for i, x := range ids[:o.Nodes] {
		bootstrap := ""
		if i > 0 {
			bootstrap = e.live[0].Addr()
		}
		n, err := e.startNode(id.ID(x), bootstrap)
		if err != nil {
			e.teardown()
			return nil, fmt.Errorf("soak: boot node %d: %w", x, err)
		}
		e.live = append(e.live, n)
	}
	o.Logf("soak: %s seed=%d: %d nodes up, %d events scheduled", o.Proto, o.Seed, len(e.live), len(e.schedule))

	// The initial ring must converge before any chaos is scripted;
	// failure here is already a scenario verdict (the geometry cannot
	// even form a ring), not a harness error.
	if err := e.clock.WaitUntil(convergeSteps, e.convergeCheck); err != nil {
		e.violate("bootstrap-converge", "%v", err)
	}

	for i := 0; i < len(e.schedule) && !e.halted; i++ {
		e.exec(e.schedule[i])
		e.v.EventsRun++
		e.clock.Step()
		if (i+1)%o.QuiesceEvery == 0 && i+1 < len(e.schedule) {
			e.quiesce()
		}
	}
	if !e.halted {
		e.quiesce()
	}

	e.v.FinalNodes = len(e.live)
	for _, n := range e.live {
		e.v.RTTSamples += n.Metrics().RTTSamples
	}
	e.v.Net = e.nw.Stats()
	e.teardown()
	e.checkGoroutines(baseline)

	e.v.Steps = e.clock.Steps()
	e.v.WallMS = time.Since(start).Milliseconds()
	if e.hopCount > 0 {
		e.v.MeanLookupHops = float64(e.hopTotal) / float64(e.hopCount)
	}
	if e.opCount > 0 {
		e.v.MeanOpMicros = float64(e.opMicros) / float64(e.opCount)
	}
	e.v.OK = len(e.v.Violations) == 0
	if !e.v.OK {
		e.v.Schedule = e.schedule
	}
	return e.v, nil
}

// startNode boots one node on the engine's network and, when bootstrap
// is non-empty, joins it through that address. On join failure the
// node is closed and the error returned — the caller decides whether
// that is fatal (boot) or a skip (scripted join during a partition).
func (e *engine) startNode(x id.ID, bootstrap string) (*node.Node, error) {
	cfg := node.Config{
		Space:             e.space,
		ID:                x,
		Addr:              cluster.AddrFor(x),
		NewRing:           ringFactories[e.o.Proto],
		SuccessorListLen:  successorListLen,
		AuxCount:          e.o.AuxCount,
		StabilizeEvery:    25 * time.Millisecond,
		FixFingersEvery:   5 * time.Millisecond,
		AuxEvery:          200 * time.Millisecond,
		RPCTimeout:        100 * time.Millisecond,
		RPCRetries:        1,
		ReplicationFactor: replicationFactor,
		ReplicateEvery:    120 * time.Millisecond,
		ItemCacheCapacity: -1, // GETs must reach owners: no stale local copies
		Scheduler:         e.sched,
		Listen: func(addr string) (node.PacketConn, error) {
			return e.nw.Listen(addr)
		},
	}
	n, err := node.Start(cfg)
	if err != nil {
		return nil, err
	}
	if bootstrap != "" {
		if err := n.Join(bootstrap); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// minLive is the membership floor churn may not cross: below it the
// quorum arithmetic of the durability invariant stops being
// interesting and partitions stop being expressible.
func (e *engine) minLive() int {
	return max(replicationFactor+2, 4)
}

func (e *engine) state(k id.ID) *keyState {
	ks, ok := e.ledger[k]
	if !ok {
		ks = &keyState{written: make(map[string]bool)}
		e.ledger[k] = ks
	}
	return ks
}

// violate records one invariant failure and halts the scenario after
// the current window completes its remaining checks.
func (e *engine) violate(check, format string, args ...any) {
	v := Violation{Window: e.v.Windows, Check: check, Detail: fmt.Sprintf(format, args...)}
	e.v.Violations = append(e.v.Violations, v)
	e.halted = true
	e.o.Logf("soak: VIOLATION [%s] %s", v.Check, v.Detail)
}

// teardown closes every live node and the network.
func (e *engine) teardown() {
	for _, n := range e.live {
		n.Close()
	}
	e.live = nil
	// Nodes first, then their scheduler: node.Close waits on in-flight
	// maintenance rounds, which needs a live worker pool.
	e.sched.Close()
	e.nw.CloseAll()
}

// checkGoroutines is the leak accounting: after teardown the process
// must return to its pre-run goroutine count, give or take the slack
// for runtime timers still draining. Polled on the wall clock — the
// step clock is part of what has shut down by now.
func (e *engine) checkGoroutines(baseline int) {
	const slack = 8
	deadline := time.Now().Add(5 * time.Second)
	for {
		g := runtime.NumGoroutine()
		if g <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			e.v.Violations = append(e.v.Violations, Violation{
				Window: e.v.Windows,
				Check:  "goroutine-leak",
				Detail: fmt.Sprintf("%d goroutines after teardown, baseline %d (+%d slack)", g, baseline, slack),
			})
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// exec dispatches one scheduled event against the live state, skipping
// (and counting) events the current membership cannot honor.
func (e *engine) exec(ev Event) {
	switch ev.Kind {
	case EvPut:
		e.doPut(ev)
	case EvGet:
		e.doGet(ev)
	case EvPutLarge:
		e.doPutLarge(ev)
	case EvGetLarge:
		e.doGetLarge(ev)
	case EvLookup:
		e.doLookup(ev)
	case EvJoin:
		e.doJoin(ev)
	case EvLeave:
		e.doLeave(ev)
	case EvCrash:
		e.doCrash(ev)
	case EvPartition:
		e.doPartition(ev)
	case EvHeal:
		e.doHeal(ev)
	case EvRamp:
		e.doRamp(ev)
	}
}

func (e *engine) pickLive(sel int) *node.Node {
	return e.live[sel%len(e.live)]
}

func (e *engine) observeOp(hops int, elapsed time.Duration) {
	e.hopTotal += hops
	e.hopCount++
	e.opMicros += elapsed.Microseconds()
	e.opCount++
}

func (e *engine) doPut(ev Event) {
	src := e.pickLive(ev.Src)
	k := e.keys[ev.Key]
	val := fmt.Sprintf("s%d-e%d", e.o.Seed, ev.Seq)
	ks := e.state(k)
	// Record before issuing: a put whose ack is lost has still landed,
	// and its value must never read back as a phantom.
	ks.written[val] = true
	begin := time.Now()
	res, err := src.Put(k, []byte(val))
	if err != nil {
		e.v.OpFailures++
		return
	}
	e.observeOp(res.Hops, time.Since(begin))
	e.v.Puts++
	ks.ackVersion = res.Version
	ks.acked = true
	ks.forfeited = false
}

func (e *engine) doGet(ev Event) {
	src := e.pickLive(ev.Src)
	k := e.keys[ev.Key]
	begin := time.Now()
	res, err := src.Get(k)
	if err != nil {
		if errors.Is(err, node.ErrNotFound) && !e.state(k).acked {
			return // a key never acknowledged may legitimately not exist
		}
		e.v.OpFailures++
		return
	}
	e.observeOp(res.Hops, time.Since(begin))
	e.v.Gets++
	if !e.state(k).written[string(res.Value)] {
		e.violate("phantom-value", "get key %d returned %q, never written", k, res.Value)
	}
}

func (e *engine) doLookup(ev Event) {
	src := e.pickLive(ev.Src)
	k := e.keys[ev.Key]
	begin := time.Now()
	owner, hops, err := src.Lookup(k)
	if err != nil {
		e.v.OpFailures++
		return
	}
	e.observeOp(hops, time.Since(begin))
	e.v.Lookups++
	if owner.ID != e.oracleOwner(k) {
		e.v.WrongOwner++
	}
}

// oracleOwner is the member of the live membership responsible for k.
func (e *engine) oracleOwner(k id.ID) id.ID {
	return owners[e.o.Proto](e.space, cluster.RingOf(e.live), k)
}

// Large-object workload geometry: a small chunk size keeps objects
// multi-chunk in a 16-bit soak (2–9 chunks each, sub-chunk tails
// included) while still exercising the manifest codec, the windowed
// parallel fetch, and the per-chunk retry path under churn.
const (
	largeChunkSize = 512
	largeMinBytes  = 700
	largeMaxBytes  = 4100
)

// chunkStore wraps src in a chunk.Store whose KV adapter keeps the
// soak ledger honest: every derived key's bytes are recorded as
// written before the put is issued (an un-acked chunk put may still
// have landed) and acks update the durability claim, so manifest and
// chunk keys flow through the same phantom/durability/stranded
// invariants as the plain workload. The mutex serializes ledger and
// hop-counter access — the fetch engine calls the adapter from Window
// goroutines, and PutObject/GetObject drain their workers before
// returning, so no access outlives the event.
func (e *engine) chunkStore(src *node.Node, hops *int) (*chunk.Store, error) {
	var mu sync.Mutex
	return chunk.New(chunk.FuncKV{
		PutFunc: func(key id.ID, value []byte) error {
			mu.Lock()
			ks := e.state(key)
			ks.written[string(value)] = true
			mu.Unlock()
			res, err := src.Put(key, value)
			if err != nil {
				return err
			}
			mu.Lock()
			*hops += res.Hops
			ks.ackVersion = res.Version
			ks.acked = true
			ks.forfeited = false
			mu.Unlock()
			return nil
		},
		GetFunc: func(key id.ID) ([]byte, int, error) {
			res, err := src.FindValue(key)
			if err != nil {
				return nil, 0, err
			}
			mu.Lock()
			*hops += res.Hops
			mu.Unlock()
			return res.Value, res.Hops, nil
		},
	}, chunk.Options{
		Space:        e.space,
		ChunkSize:    largeChunkSize,
		Window:       2,
		Retries:      1,
		RetryBackoff: e.o.Tick,
		// An overwritten chunk key can be served a bounded-stale
		// replica copy by the any-copy race until the next digest
		// round; a digest mismatch escalates to an owner read.
		StrongGet: func(key id.ID) ([]byte, int, error) {
			res, err := src.Get(key)
			if err != nil {
				return nil, 0, err
			}
			mu.Lock()
			*hops += res.Hops
			mu.Unlock()
			return res.Value, res.Hops, nil
		},
	})
}

func (e *engine) doPutLarge(ev Event) {
	src := e.pickLive(ev.Src)
	root := e.largeRoots[ev.Key%len(e.largeRoots)]
	size := largeMinBytes + ev.Pick%(largeMaxBytes-largeMinBytes)
	pat := fmt.Sprintf("L%d-e%d|", e.o.Seed, ev.Seq)
	val := make([]byte, size)
	for i := range val {
		val[i] = pat[i%len(pat)]
	}
	// Record the whole object before issuing, same reasoning as doPut:
	// a put that fails midway (or whose manifest ack is lost) may still
	// be fully assembled by a later reader.
	w := e.largeWritten[root]
	if w == nil {
		w = make(map[string]bool)
		e.largeWritten[root] = w
	}
	w[string(val)] = true
	var hops int
	st, err := e.chunkStore(src, &hops)
	if err != nil {
		e.violate("chunk-store", "event %d: %v", ev.Seq, err)
		return
	}
	begin := time.Now()
	if _, err := st.PutObject(root, val); err != nil {
		e.v.OpFailures++
		e.o.Logf("soak: event %d: put-large root %d (%d bytes) failed: %v", ev.Seq, root, size, err)
		return
	}
	e.observeOp(hops, time.Since(begin))
	e.v.PutLarges++
}

func (e *engine) doGetLarge(ev Event) {
	src := e.pickLive(ev.Src)
	root := e.largeRoots[ev.Key%len(e.largeRoots)]
	var hops int
	st, err := e.chunkStore(src, &hops)
	if err != nil {
		e.violate("chunk-store", "event %d: %v", ev.Seq, err)
		return
	}
	begin := time.Now()
	got, err := st.GetObject(root)
	if err != nil {
		if len(e.largeWritten[root]) == 0 {
			return // a root never offered may legitimately not exist
		}
		e.v.OpFailures++
		e.o.Logf("soak: event %d: get-large root %d failed: %v", ev.Seq, root, err)
		return
	}
	e.observeOp(hops, time.Since(begin))
	e.v.GetLarges++
	// The manifest digest chain makes a torn or mixed-generation read
	// fail rather than assemble, so any object that does assemble must
	// be one that was offered whole.
	if !e.largeWritten[root][string(got)] {
		e.violate("phantom-object", "get-large root %d returned %d bytes matching no written object", root, len(got))
	}
}

func (e *engine) doJoin(ev Event) {
	if len(e.pool) == 0 {
		e.v.Skipped++
		return
	}
	x := e.pool[0]
	e.pool = e.pool[1:]
	// A real joiner retries bootstraps until one answers; trying a few
	// distinct live nodes keeps membership from decaying to the floor
	// just because the first pick sat behind a partition.
	var n *node.Node
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		bootstrap := e.pickLive(ev.Src + attempt).Addr()
		if n, err = e.startNode(x, bootstrap); err == nil {
			break
		}
	}
	if err != nil {
		// Every tried bootstrap was unreachable (partition, mid-
		// handshake crash): the scenario working as intended; the id
		// goes back for later.
		e.pool = append(e.pool, x)
		e.v.Skipped++
		e.o.Logf("soak: event %d: join of %d skipped: %v", ev.Seq, x, err)
		return
	}
	e.live = append(e.live, n)
	e.v.Joins++
	e.o.Logf("soak: event %d: node %d joined (%d live)", ev.Seq, x, len(e.live))
}

// coveredElsewhere reports whether some live node other than skip
// holds key k at version ≥ v.
func (e *engine) coveredElsewhere(k id.ID, v uint64, skip *node.Node) bool {
	for _, n := range e.live {
		if n == skip {
			continue
		}
		if it, ok := n.ItemDetail(k); ok && it.Version >= v {
			return true
		}
	}
	return false
}

// forfeitUncovered releases the durability claim of every acked key
// whose only ≥ack copy sits on victim — the ledger's quorum clause:
// once the last live holder goes, "no acknowledged write lost" has no
// surviving set to hold to.
func (e *engine) forfeitUncovered(victim *node.Node) {
	for k, ks := range e.ledger {
		if !ks.acked || ks.forfeited {
			continue
		}
		if _, ok := victim.ItemDetail(k); !ok {
			continue
		}
		if !e.coveredElsewhere(k, ks.ackVersion, victim) {
			ks.forfeited = true
			e.v.Forfeits++
		}
	}
}

func (e *engine) doLeave(ev Event) {
	if len(e.live) <= e.minLive() {
		e.v.Skipped++
		return
	}
	i := ev.Src % len(e.live)
	victim := e.live[i]
	// A graceful leave drains first: replication rounds until every
	// acked key the victim holds is covered elsewhere, within a
	// bounded number of rounds (datagram loss can eat one-way pushes;
	// repetition makes residual loss negligible on a healed network,
	// and a partitioned one may legitimately fail to drain).
	for attempt := 0; attempt < 8; attempt++ {
		victim.ReplicationRound()
		covered := true
		for k, ks := range e.ledger {
			if !ks.acked || ks.forfeited {
				continue
			}
			if it, ok := victim.ItemDetail(k); ok && it.Version >= ks.ackVersion {
				if !e.coveredElsewhere(k, ks.ackVersion, victim) {
					covered = false
					break
				}
			}
		}
		if covered {
			break
		}
		e.clock.Step()
	}
	e.forfeitUncovered(victim) // anything still uncovered is forfeited, not failed
	e.live = append(e.live[:i], e.live[i+1:]...)
	victim.Leave()
	e.pool = append(e.pool, victim.ID())
	e.v.Leaves++
	e.o.Logf("soak: event %d: node %d left (%d live)", ev.Seq, victim.ID(), len(e.live))
}

func (e *engine) doCrash(ev Event) {
	if len(e.live) <= e.minLive() {
		e.v.Skipped++
		return
	}
	i := ev.Src % len(e.live)
	victim := e.live[i]
	e.live = append(e.live[:i], e.live[i+1:]...)
	e.forfeitUncovered(victim)
	victim.Crash()
	e.pool = append(e.pool, victim.ID())
	e.v.Crashes++
	e.o.Logf("soak: event %d: node %d crashed (%d live)", ev.Seq, victim.ID(), len(e.live))
}

func (e *engine) doPartition(ev Event) {
	if len(e.live) < 2*e.minLive() || len(e.parts) >= 2 {
		e.v.Skipped++
		return
	}
	ring := cluster.RingOf(e.live)
	size := 1 + ev.Pick%(len(ring)/2)
	offset := ev.Src % len(ring)
	members := make([]string, 0, size)
	for j := 0; j < size; j++ {
		members = append(members, cluster.AddrFor(ring[(offset+j)%len(ring)]))
	}
	name := fmt.Sprintf("p%d", ev.Seq)
	e.nw.Partition(name, members...)
	e.parts = append(e.parts, name)
	e.v.Partitions++
	e.o.Logf("soak: event %d: partition %s isolates %d nodes", ev.Seq, name, size)
}

func (e *engine) doHeal(ev Event) {
	if len(e.parts) == 0 {
		e.v.Skipped++
		return
	}
	i := ev.Pick % len(e.parts)
	name := e.parts[i]
	e.parts = append(e.parts[:i], e.parts[i+1:]...)
	e.nw.Heal(name)
	e.v.Heals++
	e.o.Logf("soak: event %d: healed %s", ev.Seq, name)
}

// doRamp reshapes the network-wide default policy within a bounded
// fault envelope — loss to 4%, latency to 1.5ms of jitter, a whiff of
// duplication — or, every fourth ramp, restores the perfect network.
func (e *engine) doRamp(ev Event) {
	var p memnet.LinkPolicy
	if ev.Pick%4 != 0 {
		p = memnet.LinkPolicy{
			Drop:     ev.Frac * 0.04,
			Dup:      0.01,
			MaxDelay: time.Duration(ev.Frac * 1.5 * float64(time.Millisecond)),
		}
	}
	e.nw.SetDefaultPolicy(p)
	e.v.Ramps++
	e.o.Logf("soak: event %d: ramp drop=%.3f maxdelay=%v", ev.Seq, p.Drop, p.MaxDelay)
}
