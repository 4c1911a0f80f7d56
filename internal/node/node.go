// Package node is the live counterpart of the discrete-event
// simulators: a real datagram-based overlay node hosting the paper's
// peer-caching layer. Where the simulators exchange messages inside
// internal/sim's virtual clock, a node.Node opens a datagram endpoint,
// runs maintenance protocol rounds on its Scheduler against wall-clock
// time, answers iterative find-successor steps from peers, and — the
// point of the exercise — observes its own lookup traffic in a
// frequency counter and periodically recomputes the optimal auxiliary
// neighbor set, splicing the result into every routing decision it
// makes or answers.
//
// The routing geometry is pluggable: the runtime here owns the
// transport, RPC correlation, the iterative lookup driver (lookup.go),
// the kv data plane, replication, the contact-address cache, and the
// maintenance jobs, while everything protocol-specific lives behind the
// ring.Routing interface (internal/node/ring). Chord
// (internal/node/chordring, the default), Pastry
// (internal/node/pastryring) and Kademlia (internal/node/kadring)
// implement it today; Config.NewRing selects the geometry. The paper's
// auxiliary-neighbor layer is the runtime's too — one frequency window,
// one recomputation trigger, one installed set per node — and a
// geometry contributes only its distance metric (Routing.SelectAux).
//
// Dial opens the anonymous Client (client.go): the same transport and
// lookup driver without a ring identity, for reading and writing the
// overlay from outside it.
//
// The transport is equally pluggable: everything here depends only on
// the PacketConn contract (packetconn.go). Production nodes run over
// real UDP sockets via ListenUDP (cmd/p2pnode selects it; it is also
// the default); tests run 50+ node clusters in one process over
// internal/memnet's fault-injecting switchboard, which satisfies the
// same contract.
//
// Concurrency model: one goroutine reads the endpoint and handles
// requests inline (handlers only touch the mutex-guarded routing state
// and write one reply datagram, so the read loop never blocks on
// protocol work); responses are correlated to blocked RPC callers
// through an inflight map keyed by MsgID. The maintenance jobs and any
// number of application Lookup calls run on their own goroutines and
// issue synchronous RPCs with per-call timeouts and bounded retry.
package node

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"peercache/internal/core"
	"peercache/internal/freq"
	"peercache/internal/id"
	"peercache/internal/itemcache"
	"peercache/internal/node/chordring"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// Config parameterizes a live node.
type Config struct {
	// Space is the identifier space (required).
	Space id.Space
	// ID is the node's ring identifier (must fit in Space).
	ID id.ID
	// Addr is the listen address, interpreted by the Listen provider
	// (default "127.0.0.1:0", an ephemeral UDP port under ListenUDP).
	Addr string
	// Advertise overrides the address told to peers (default: the
	// bound address). Needed when binding a wildcard address.
	Advertise string

	// NewRing selects the routing geometry (default chordring.New;
	// pastryring.New and kadring.New are the other in-tree geometries).
	// The factory runs before the transport starts.
	NewRing ring.Factory

	// SuccessorListLen bounds the geometry's near-neighbor list: the
	// successor list in Chord, one leaf-set side in Pastry (default 4,
	// max wire.MaxSuccs).
	SuccessorListLen int
	// BucketSize bounds one Kademlia k-bucket (default 0: the geometry's
	// own default, 20). The ring geometries ignore it.
	BucketSize int
	// LookupAlpha is α, the number of candidate probes the iterative
	// lookup driver keeps in flight concurrently (default 3, max 16).
	// 1 reproduces the pre-racing serial walk exactly: one probe at a
	// time, each chosen by the geometry's NextHop.
	LookupAlpha int
	// AuxCount is k, the auxiliary-neighbor budget (default 0: the
	// node routes with core entries only).
	AuxCount int

	// StabilizeEvery is the near-neighbor maintenance period (default
	// 500ms).
	StabilizeEvery time.Duration
	// FixFingersEvery is the long-range-table repair period (default
	// 125ms; FixFingersBatch entries per tick, round-robin).
	FixFingersEvery time.Duration
	// FixFingersBatch is how many long-range table entries each repair
	// tick refreshes (default 1, the historical one-finger-per-tick
	// cadence). Chord honors it — raising it multiplies lookup traffic
	// per tick but divides cold-start finger convergence time, which is
	// what large benchmark overlays wait on; Pastry and Kademlia repair
	// by exchange and ignore it.
	FixFingersBatch int
	// AuxEvery is the auxiliary recomputation period: every tick
	// re-selects the aux set from the observed frequencies, then ages
	// the frequency window, which spans four ticks. 0 (the default)
	// disables the ticker; RecomputeAux can still be called explicitly.
	AuxEvery time.Duration
	// AuxQoS enables latency-aware aux selection: recomputeAux weights
	// each observed peer's lookup frequency by its measured smoothed
	// RTT and runs the paper's delay-bound-constrained selection
	// (SelectChordQoS / SelectPastryQoS), so the auxiliary budget goes
	// where it saves the most *time*, not the most hops. Peers whose
	// smoothed RTT exceeds AuxQoSDelayBound get a hard distance bound
	// of 0 — they must be reachable in one hop or the selection is
	// infeasible (the runtime then falls back to the unconstrained
	// selection and counts it). Togglable at runtime via SetAuxQoS.
	AuxQoS bool
	// AuxQoSDelayBound is the smoothed-RTT threshold above which a
	// peer's lookups must not pay any extra routing hops (default
	// 100ms; negative disables the bound, leaving pure RTT-weighted
	// frequency optimization).
	AuxQoSDelayBound time.Duration

	// RPCTimeout bounds one RPC attempt (default 500ms).
	RPCTimeout time.Duration
	// RPCRetries is how many times a timed-out RPC is retried with a
	// fresh MsgID (default 2).
	RPCRetries int
	// MaxLookupHops aborts runaway lookups (default 64).
	MaxLookupHops int

	// ReplicationFactor is the total number of copies of each owned
	// item, the owner included (default 2; 1 keeps items on their owner
	// only). The owner pushes copies to its first factor-1 distinct
	// successors; when the successor list is shorter the placement
	// degrades gracefully and recovers with the membership.
	ReplicationFactor int
	// ReplicateEvery is the replication/reconciliation period: each
	// round re-pushes every owned item to the current successor targets
	// (anti-entropy — successor changes are picked up automatically),
	// promotes replicas the node has become responsible for, and hands
	// off items whose keys have left its range (default 5s; negative
	// disables the ticker, ReplicationRound can still be called).
	ReplicateEvery time.Duration
	// StoreCapacity bounds the item store, owned and replica items
	// together (default 4096). A full store rejects new keys.
	StoreCapacity int
	// StoreTTL expires store items that have not been written or
	// replica-refreshed within it (default 0: items never expire).
	StoreTTL time.Duration
	// ItemCacheCapacity bounds the local cache of item copies picked up
	// on the GET path — the paper's peer caching of hot items (default
	// 256; negative disables the cache).
	ItemCacheCapacity int
	// ItemCacheTTL bounds how stale a cached copy may be served
	// (default 30s).
	ItemCacheTTL time.Duration

	// Listen opens the node's datagram endpoint (default ListenUDP,
	// the real-socket provider). Tests swap in memnet to run whole
	// clusters in one process; Addr is interpreted by the provider.
	Listen Listener
	// Scheduler drives the maintenance loops (default: one goroutine
	// and one time.Ticker per job). Large in-process clusters inject a
	// shared NewBatchScheduler so thousands of nodes share one timer
	// heap and a bounded worker pool instead of spawning four ticker
	// goroutines each. The scheduler must outlive the node: close nodes
	// before closing a shared scheduler.
	Scheduler Scheduler
	// DisableHealProbe turns off the per-stabilize probe of one random
	// cached contact. The probe is what lets two rings that diverged
	// during a network partition merge again after it heals; disable
	// it only in tests that need a fully quiescent node.
	DisableHealProbe bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Space.Bits() == 0 {
		return c, fmt.Errorf("node: zero-value id space")
	}
	if uint64(c.ID) >= c.Space.Size() {
		return c, fmt.Errorf("node: id %d outside %d-bit space", c.ID, c.Space.Bits())
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.NewRing == nil {
		c.NewRing = chordring.New
	}
	if c.SuccessorListLen == 0 {
		c.SuccessorListLen = 4
	}
	if c.SuccessorListLen < 1 || c.SuccessorListLen > wire.MaxSuccs {
		return c, fmt.Errorf("node: successor list length %d outside [1, %d]", c.SuccessorListLen, wire.MaxSuccs)
	}
	if c.BucketSize < 0 {
		return c, fmt.Errorf("node: negative bucket size %d", c.BucketSize)
	}
	if c.LookupAlpha == 0 {
		c.LookupAlpha = 3
	}
	if c.LookupAlpha < 1 || c.LookupAlpha > 16 {
		return c, fmt.Errorf("node: lookup alpha %d outside [1, 16]", c.LookupAlpha)
	}
	if c.AuxCount < 0 {
		return c, fmt.Errorf("node: negative aux count %d", c.AuxCount)
	}
	if c.StabilizeEvery == 0 {
		c.StabilizeEvery = 500 * time.Millisecond
	}
	if c.FixFingersEvery == 0 {
		c.FixFingersEvery = 125 * time.Millisecond
	}
	if c.FixFingersBatch == 0 {
		c.FixFingersBatch = 1
	}
	if c.FixFingersBatch < 1 {
		return c, fmt.Errorf("node: fix-fingers batch %d below 1", c.FixFingersBatch)
	}
	if c.AuxQoSDelayBound == 0 {
		c.AuxQoSDelayBound = 100 * time.Millisecond
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 500 * time.Millisecond
	}
	if c.RPCRetries == 0 {
		c.RPCRetries = 2
	}
	if c.MaxLookupHops == 0 {
		c.MaxLookupHops = 64
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = 2
	}
	if c.ReplicationFactor < 1 {
		return c, fmt.Errorf("node: replication factor %d below 1", c.ReplicationFactor)
	}
	if c.ReplicateEvery == 0 {
		c.ReplicateEvery = 5 * time.Second
	}
	if c.StoreCapacity == 0 {
		c.StoreCapacity = 4096
	}
	if c.StoreCapacity < 0 {
		return c, fmt.Errorf("node: negative store capacity %d", c.StoreCapacity)
	}
	if c.StoreTTL < 0 {
		return c, fmt.Errorf("node: negative store TTL %v", c.StoreTTL)
	}
	if c.ItemCacheCapacity == 0 {
		c.ItemCacheCapacity = 256
	}
	if c.ItemCacheTTL == 0 {
		c.ItemCacheTTL = 30 * time.Second
	}
	if c.ItemCacheTTL < 0 {
		return c, fmt.Errorf("node: negative item cache TTL %v", c.ItemCacheTTL)
	}
	if c.Listen == nil {
		c.Listen = ListenUDP
	}
	if c.Scheduler == nil {
		c.Scheduler = goTickers{}
	}
	return c, nil
}

// Metrics is a snapshot of the node's counters.
type Metrics struct {
	DatagramsIn, DatagramsOut uint64
	// BytesIn/BytesOut are cumulative wire bytes through the endpoint
	// (payload bytes as handed to/from the datagram transport).
	BytesIn, BytesOut       uint64
	DecodeErrors            uint64
	RPCs, Retries, Timeouts uint64
	Lookups, LookupHops     uint64
	LookupFailures          uint64
	AuxRecomputes           uint64
	// AuxHits counts resolved lookups whose winning first-hop probe hit
	// a current auxiliary neighbor — the paper's cache-hit event: the
	// aux shortcut finished the walk in one step.
	AuxHits uint64

	// Data plane (kv.go). Issued counters track this node acting as a
	// client, Served counters track it answering peers; StoreHits and
	// CacheHits are GETs answered locally without touching the network.
	PutsIssued, GetsIssued  uint64
	PutsServed, GetsServed  uint64
	StoreHits, CacheHits    uint64
	ReplicasIn, ReplicasOut uint64
	Promotions, Demotions   uint64
	// StrandedRepairs counts replica-only items whose owner this node
	// re-resolved and re-pushed on the anti-entropy ticker — the repair
	// loop that re-homes keys stranded by a failed handoff (no live
	// owner refreshing them).
	StrandedRepairs uint64

	// Digest anti-entropy (kv.go). DigestsOut counts digest batches this
	// node sent as an owner, DigestsIn digest batches it answered as a
	// replica target, DiffKeysOut the keys peers requested after a digest
	// (the diff actually shipped), and FullPushFallbacks digest batches
	// that fell back to the full per-item push because the target never
	// answered the digest.
	DigestsOut, DigestsIn uint64
	DiffKeysOut           uint64
	FullPushFallbacks     uint64
	// ReplBytesOut is the anti-entropy push phase's actual wire bytes
	// (digest requests, digest responses served, and Replicate diffs);
	// ReplBytesFullPush is what the same rounds would have cost under
	// the pre-digest protocol (every owned item re-pushed to every
	// target, every round). The ratio is the digest protocol's byte
	// reduction, independent of scale and tick rate.
	ReplBytesOut, ReplBytesFullPush uint64
	// ReplicaServes counts reads this node answered from a replica copy
	// (TGet or TFindValue on a key it does not own) — the hot-key
	// capacity that scales with ReplicationFactor.
	ReplicaServes uint64

	// Latency plane (rtt.go). RTTSamples counts correlated RPC
	// responses folded into the per-contact EWMA estimates;
	// AuxQoSSelects counts aux recomputations that ran the
	// delay-bound-constrained QoS selection, AuxQoSInfeasible the ones
	// whose bounds could not be met with the configured aux budget
	// (the runtime then falls back to the unconstrained selection).
	RTTSamples       uint64
	AuxQoSSelects    uint64
	AuxQoSInfeasible uint64
	// AuxQoS reports whether QoS-aware aux selection is currently
	// enabled (Config.AuxQoS, togglable at runtime via SetAuxQoS).
	AuxQoS bool
	// RTTContacts is the number of contacts with a live RTT estimate.
	RTTContacts int

	// Gauges: current item counts by authority.
	ItemsOwned, ItemsReplica, ItemsCached int
	// Alpha is the lookup driver's live probe concurrency.
	Alpha int
	// StoreShards is the item store's lock-domain count (1: one map
	// under one mutex).
	StoreShards int
}

// Node is a running protocol participant. Create with Start, stop with
// Close.
type Node struct {
	cfg  Config
	self wire.Contact
	tr   *transport

	// rt is the routing geometry; everything protocol-specific
	// (successors vs. leaves, fingers vs. prefix rows) lives behind it.
	rt ring.Routing
	// lk is the iterative lookup driver, probing through tr and ranking
	// with rt.
	lk lookup

	// window holds the lookup-frequency observations aux selection
	// runs on (Section III's "past history of accesses within a time
	// window"): every client lookup adds to it without waiting on a
	// selection, and each aux tick ages it one bucket.
	window *freq.Shared

	// addrMu guards the contact cache: every id the node has ever heard
	// from, mapped to its last known transport address (the live-network
	// analogue of the simulator's global node map — without it a freshly
	// selected auxiliary id would be unroutable). Shared by all
	// geometries; the heal probe samples it.
	addrMu sync.RWMutex
	addrs  map[id.ID]string
	// rtt holds the smoothed per-contact RTT estimates (rtt.go), under
	// addrMu so estimate eviction is atomic with address eviction:
	// every estimate has a backing addrs entry.
	rtt map[id.ID]rttEstimate

	// Data plane (kv.go): the authoritative item store, the bounded
	// cache of copies picked up on the GET path (nil when disabled),
	// and the key→owner hint cache that lets recomputeAux alias an aux
	// pointer at a hot key's ring position to the owner's address.
	store      *store
	cache      *itemcache.TTLCache[cachedCopy]
	ownerHints ownerHints

	// replMu guards the target set of the last replication push, so
	// stabilize can trigger an extra round when the successors change.
	replMu          sync.Mutex
	lastReplTargets []id.ID

	// jobs are the maintenance loops registered with the scheduler;
	// populated once in Start, then read-only until shutdown.
	jobs     []JobHandle
	stopOnce sync.Once

	lookups     atomic.Uint64
	lookupHops  atomic.Uint64
	lookupFails atomic.Uint64
	auxRecomps  atomic.Uint64
	auxHits     atomic.Uint64

	// QoS aux selection (rtt.go, recomputeAux): the runtime toggle and
	// the selection-outcome counters.
	auxQoS           atomic.Bool
	auxQoSSelects    atomic.Uint64
	auxQoSInfeasible atomic.Uint64
	rttSamples       atomic.Uint64

	putsIssued, getsIssued  atomic.Uint64
	putsServed, getsServed  atomic.Uint64
	storeHits, cacheHits    atomic.Uint64
	replicasIn, replicasOut atomic.Uint64
	promotions, demotions   atomic.Uint64
	strandedRepairs         atomic.Uint64

	digestsOut, digestsIn       atomic.Uint64
	diffKeysOut, fullPushes     atomic.Uint64
	replBytesOut, replBytesFull atomic.Uint64
	replicaServes               atomic.Uint64
}

// host adapts a Node to the ring.Host surface its geometry programs
// against.
type host struct{ n *Node }

func (h host) Self() wire.Contact { return h.n.self }
func (h host) Space() id.Space    { return h.n.cfg.Space }
func (h host) Call(addr string, req *wire.Message) (*wire.Message, error) {
	return h.n.call(addr, req)
}
func (h host) Send(addr string, m *wire.Message)               { h.n.tr.send(addr, m) }
func (h host) Resolve(target id.ID) (wire.Contact, int, error) { return h.n.FindSuccessor(target) }
func (h host) Note(c wire.Contact)                             { h.n.noteContact(c) }
func (h host) AddrOf(x id.ID) (string, bool)                   { return h.n.addrOf(x) }
func (h host) RTTOf(x id.ID) (time.Duration, bool)             { return h.n.ContactRTT(x) }

// Start opens the datagram endpoint through the configured Listener
// (real UDP by default), builds the routing geometry, starts the read
// loop and the maintenance tickers, and returns the node as a ring of
// one. Call Join to enter an existing overlay.
func Start(cfg Config) (*Node, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	conn, err := cfg.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	adv := cfg.Advertise
	if adv == "" {
		adv = conn.LocalAddr()
	}
	if len(adv) > wire.MaxAddrLen {
		conn.Close()
		return nil, fmt.Errorf("node: advertise address %q exceeds %d bytes", adv, wire.MaxAddrLen)
	}
	n := &Node{
		cfg:    cfg,
		self:   wire.Contact{ID: cfg.ID, Addr: adv},
		addrs:  make(map[id.ID]string),
		rtt:    make(map[id.ID]rttEstimate),
		window: freq.NewShared(auxWindowBuckets),
	}
	n.auxQoS.Store(cfg.AuxQoS)
	n.store = newStore(cfg.StoreCapacity, cfg.StoreTTL)
	if cfg.ItemCacheCapacity > 0 {
		n.cache = itemcache.NewTTL[cachedCopy](cfg.ItemCacheCapacity, cfg.ItemCacheTTL)
	}
	// The transport exists before the factory runs (so the geometry can
	// capture a working Host) but starts reading only after, so no
	// request races the geometry's construction.
	n.tr = newTransport(conn, n.self, n.handle)
	n.tr.onRTT = n.observeRTT
	n.rt, err = cfg.NewRing(host{n}, ring.Options{
		NeighborListLen: cfg.SuccessorListLen,
		BucketSize:      cfg.BucketSize,
		MaxLookupHops:   cfg.MaxLookupHops,
		RepairBatch:     cfg.FixFingersBatch,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	n.lk = newLookup(n.tr, n.rt, cfg)
	n.lk.note, n.lk.rtt = n.noteContact, n.ContactRTT
	n.tr.start()

	n.every(cfg.StabilizeEvery, n.stabilize)
	n.every(cfg.FixFingersEvery, n.rt.RepairTable)
	if cfg.AuxEvery > 0 && cfg.AuxCount > 0 {
		n.every(cfg.AuxEvery, func() {
			n.recomputeAux(true)
		})
	}
	if cfg.ReplicateEvery > 0 {
		n.every(cfg.ReplicateEvery, n.ReplicationRound)
	}
	return n, nil
}

// every registers fn with the scheduler to run each period until Close.
func (n *Node) every(period time.Duration, fn func()) {
	n.jobs = append(n.jobs, n.cfg.Scheduler.Every(period, fn))
}

// Close stops the maintenance loops and shuts the endpoint down. Safe
// to call more than once, and safe to call while RPCs are in flight.
//
// Shutdown ordering, which the goroutine-leak test in close_test.go
// pins down:
//
//  1. Every maintenance job is cancelled: no new round starts (under
//     the default scheduler the ticker goroutine exits at its next
//     select).
//  2. The transport closes its done channel, so every RPC currently
//     blocked in call — including ones issued by a round mid-flight —
//     returns ErrClosed immediately instead of waiting out its timeout.
//  3. The endpoint is closed, unblocking the read loop's ReadFrom, and
//     the transport waits for the read loop to return.
//  4. Waiting on each job collects the in-flight maintenance rounds
//     (now unblocked by 2).
//
// After Close returns, no maintenance code of this node is executing
// and no new datagram can be sent: transport.send and call both fail
// against the closed endpoint, so a straggling caller cannot write to
// the network post-close.
func (n *Node) Close() error { return n.shutdown(false) }

// Crash stops the node as a crash-stop failure for tests and the soak
// harness: the transport dies first — mid-protocol, with tickers still
// running — so peers see the node vanish exactly as they would a
// killed process, and only then are the maintenance goroutines
// collected. No handoff, no final replication push; whatever the
// replicas already hold is all that survives. Like Close it reaps
// every goroutine before returning (the crash being simulated is the
// node's, not the test harness's) and is idempotent with it: whichever
// of Close/Crash runs first wins, the other is a no-op.
func (n *Node) Crash() error { return n.shutdown(true) }

// Leave departs gracefully: one final replication round hands off and
// re-pushes every owned item before the node shuts down. The pushes
// are one-way datagrams, so durability across a leave is still the
// replication factor's job — a caller that needs certainty must verify
// another holder has the data before calling (the soak harness does).
func (n *Node) Leave() error {
	n.ReplicationRound()
	return n.Close()
}

func (n *Node) shutdown(crash bool) error {
	var err error
	n.stopOnce.Do(func() {
		if crash {
			// Crash-stop: the transport dies first, mid-protocol, with
			// the maintenance jobs still armed — peers see the node
			// vanish exactly as they would a killed process.
			err = n.tr.close()
			for _, j := range n.jobs {
				j.Cancel()
			}
		} else {
			for _, j := range n.jobs {
				j.Cancel()
			}
			err = n.tr.close()
		}
		for _, j := range n.jobs {
			j.Wait()
		}
	})
	return err
}

// ID returns the node's ring identifier.
func (n *Node) ID() id.ID { return n.self.ID }

// Addr returns the advertised transport address.
func (n *Node) Addr() string { return n.self.Addr }

// Contact returns the node's own contact.
func (n *Node) Contact() wire.Contact { return n.self }

// Protocol names the active routing geometry.
func (n *Node) Protocol() string { return n.rt.Protocol() }

// Ring exposes the routing geometry for introspection (tests, tools).
func (n *Node) Ring() ring.Routing { return n.rt }

// Successor returns the current immediate successor (self when alone).
func (n *Node) Successor() wire.Contact {
	if s := n.rt.Successors(); len(s) > 0 {
		return s[0]
	}
	return n.self
}

// Successors returns the geometry's near-neighbor list, nearest first
// (self when alone).
func (n *Node) Successors() []wire.Contact {
	if s := n.rt.Successors(); len(s) > 0 {
		return s
	}
	return []wire.Contact{n.self}
}

// Predecessor returns the current predecessor pointer.
func (n *Node) Predecessor() (wire.Contact, bool) { return n.rt.Predecessor() }

// Fingers returns the populated long-range table entries (Chord:
// fingers; Pastry: prefix-table rows).
func (n *Node) Fingers() []wire.Contact { return n.rt.TableList() }

// TableSize counts the populated long-range table entries.
func (n *Node) TableSize() int { return n.rt.TableSize() }

// Aux returns a copy of the current auxiliary neighbor set.
func (n *Node) Aux() []wire.Contact { return slices.Clone(n.rt.Aux()) }

// Metrics returns a snapshot of the node's counters.
func (n *Node) Metrics() Metrics {
	owned, replicas := n.store.counts()
	cached := 0
	if n.cache != nil {
		cached = n.cache.Len()
	}
	return Metrics{
		DatagramsIn:       n.tr.datagramsIn.Load(),
		DatagramsOut:      n.tr.datagramsOut.Load(),
		DecodeErrors:      n.tr.decodeErrs.Load(),
		RPCs:              n.tr.rpcs.Load(),
		Retries:           n.tr.retries.Load(),
		Timeouts:          n.tr.timeouts.Load(),
		Lookups:           n.lookups.Load(),
		LookupHops:        n.lookupHops.Load(),
		LookupFailures:    n.lookupFails.Load(),
		AuxRecomputes:     n.auxRecomps.Load(),
		AuxHits:           n.auxHits.Load(),
		BytesIn:           n.tr.bytesIn.Load(),
		BytesOut:          n.tr.bytesOut.Load(),
		PutsIssued:        n.putsIssued.Load(),
		GetsIssued:        n.getsIssued.Load(),
		PutsServed:        n.putsServed.Load(),
		GetsServed:        n.getsServed.Load(),
		StoreHits:         n.storeHits.Load(),
		CacheHits:         n.cacheHits.Load(),
		ReplicasIn:        n.replicasIn.Load(),
		ReplicasOut:       n.replicasOut.Load(),
		Promotions:        n.promotions.Load(),
		Demotions:         n.demotions.Load(),
		StrandedRepairs:   n.strandedRepairs.Load(),
		DigestsOut:        n.digestsOut.Load(),
		DigestsIn:         n.digestsIn.Load(),
		DiffKeysOut:       n.diffKeysOut.Load(),
		FullPushFallbacks: n.fullPushes.Load(),
		ReplBytesOut:      n.replBytesOut.Load(),
		ReplBytesFullPush: n.replBytesFull.Load(),
		ReplicaServes:     n.replicaServes.Load(),
		RTTSamples:        n.rttSamples.Load(),
		AuxQoSSelects:     n.auxQoSSelects.Load(),
		AuxQoSInfeasible:  n.auxQoSInfeasible.Load(),
		AuxQoS:            n.auxQoS.Load(),
		RTTContacts:       n.rttContacts(),
		ItemsOwned:        owned,
		ItemsReplica:      replicas,
		ItemsCached:       cached,
		Alpha:             n.cfg.LookupAlpha,
		StoreShards:       storeShards,
	}
}

// rttContacts is the tracked-estimate count gauge.
func (n *Node) rttContacts() int {
	n.addrMu.RLock()
	defer n.addrMu.RUnlock()
	return len(n.rtt)
}

// call is the node's RPC entry point with the configured timeout/retry
// policy.
func (n *Node) call(addr string, req *wire.Message) (*wire.Message, error) {
	return n.tr.call(addr, req, n.cfg.RPCTimeout, n.cfg.RPCRetries)
}

// Ping sends one liveness probe to addr and waits for the pong. Beyond
// liveness, the correlated round trip feeds the contact RTT estimator
// like any other RPC, so harnesses and operators can actively prime
// latency estimates for peers the lookup path has not yet timed — the
// measurement step QoS-aware aux selection builds on.
func (n *Node) Ping(addr string) error {
	_, err := n.call(addr, &wire.Message{Type: wire.TPing})
	return err
}

// noteContact records c's address in the contact cache. Self and
// addressless contacts are ignored — in particular the zero sender
// contact of anonymous kv clients never pollutes routing state.
func (n *Node) noteContact(c wire.Contact) {
	if c.ID == n.self.ID || c.Addr == "" {
		return
	}
	// Fast path: almost every note re-records an address the cache
	// already has (every handled request and parsed response notes its
	// contacts), so check under the read lock first — at cluster scale
	// the unconditional write lock here serialized the read loops of
	// every node in the process.
	n.addrMu.RLock()
	known := n.addrs[c.ID] == c.Addr
	n.addrMu.RUnlock()
	if known {
		return
	}
	n.addrMu.Lock()
	n.addrs[c.ID] = c.Addr
	n.addrMu.Unlock()
}

// addrOf returns the cached address for x.
func (n *Node) addrOf(x id.ID) (string, bool) {
	n.addrMu.RLock()
	a, ok := n.addrs[x]
	n.addrMu.RUnlock()
	return a, ok
}

// forgetAddr drops x's contact-cache entry, but only while it still
// maps to the address that just failed — a concurrent noteContact may
// have learned a fresher address, and that one must survive.
func (n *Node) forgetAddr(x id.ID, failed string) {
	n.addrMu.Lock()
	if n.addrs[x] == failed {
		delete(n.addrs, x)
		delete(n.rtt, x) // estimate eviction is atomic with the address
	}
	n.addrMu.Unlock()
}

// randomCached samples one contact from the address cache (the heal
// probe's candidate pool: every peer the node has ever heard from,
// including ones long dropped from the routing state). It takes the
// first entry of a map iteration — the runtime starts each iteration
// at a random position, which gives every entry a nonzero chance per
// round without walking the whole cache. The slight bucket-occupancy
// bias is irrelevant for a liveness probe, and a full reservoir pass
// was the top per-round cost at thousand-node scale (O(n) iteration
// plus an RNG draw per entry, per node, per stabilize round).
func (n *Node) randomCached() (wire.Contact, bool) {
	n.addrMu.RLock()
	defer n.addrMu.RUnlock()
	for x, addr := range n.addrs {
		return wire.Contact{ID: x, Addr: addr}, true
	}
	return wire.Contact{}, false
}

// Join enters the overlay through a peer listening at bootstrap,
// delegating the protocol-specific walk (and duplicate-id detection) to
// the geometry.
func (n *Node) Join(bootstrap string) error {
	return n.rt.Join(bootstrap)
}

// handle processes one incoming request on the read-loop goroutine. It
// must not block: local state plus one reply datagram only. Types the
// runtime does not own are offered to the geometry; unknown requests
// are dropped without a reply.
func (n *Node) handle(m *wire.Message, src string) {
	n.noteContact(m.From)
	resp := &wire.Message{MsgID: m.MsgID, From: n.self}
	switch m.Type {
	case wire.TPing:
		resp.Type = wire.TPong
	case wire.TFindSucc:
		resp.Type = wire.TFindSuccResp
		hop, done := n.rt.NextHop(m.Target)
		if done {
			resp.Done, resp.Found = true, hop
		} else {
			resp.Next = hop
		}
	case wire.TPut:
		resp.Type = wire.TPutAck
		n.handlePut(m, resp)
	case wire.TGet:
		resp.Type = wire.TGetResp
		n.handleGet(m, resp)
	case wire.TFindValue:
		resp.Type = wire.TFindValueResp
		n.handleFindValue(m, resp)
	case wire.TReplicate:
		n.handleReplicate(m)
		return // one-way: no response
	case wire.TReplicateDigest:
		resp.Type = wire.TReplicateDigestResp
		n.handleReplicateDigest(m, resp)
	default:
		if !n.rt.HandleRequest(m, resp) {
			return // unknown request; nothing sensible to reply
		}
	}
	sent := n.tr.send(src, resp)
	if resp.Type == wire.TReplicateDigestResp {
		// The digest response is replication-plane traffic: account it
		// here so cluster-summed ReplBytesOut covers both directions of
		// the protocol.
		n.replBytesOut.Add(uint64(sent))
	}
}

// FindSuccessor resolves the node responsible for target by driving the
// α-parallel iterative lookup: ask the geometry for the best local step
// (auxiliary neighbors included — a cache hit short-circuits the whole
// walk), then race up to LookupAlpha concurrent probes over the
// geometry-ordered candidate frontier until one answers Done. The hop
// count is the winning response's path depth on success (so a racing
// lookup reports the length of the path that resolved the key, directly
// comparable to the serial walk's RPC count) and the number of probes
// launched on failure. The Candidates contract makes Candidates(target,
// 1) exactly NextHop's pick, so at α=1 both equal the serial walk's
// count exactly.
func (n *Node) FindSuccessor(target id.ID) (wire.Contact, int, error) {
	if cur, done := n.rt.NextHop(target); done {
		return cur, 0, nil
	}
	out, err := n.race(target, n.rt.Candidates(target, n.cfg.LookupAlpha), false)
	return out.owner, out.hops, err
}

// race runs one walk on the node's lookup driver (lookup.go), latching
// the QoS routing choice for the whole walk, and counts an aux hit.
func (n *Node) race(target id.ID, seed []wire.Contact, valueMode bool) (raceOutcome, error) {
	out, err := n.lk.race(target, seed, valueMode, n.auxQoS.Load())
	if out.auxHit {
		n.auxHits.Add(1)
	}
	return out, err
}

// Lookup is FindSuccessor for application traffic: the looked-up key is
// recorded in the frequency observer (the input to auxiliary selection,
// Section III of the paper) and the hop count feeds the node's metrics.
//
// The observer sees the key's own ring position, not the owner's node
// id: auxiliary selection then optimizes for the item access
// distribution the data plane actually produces. When a selected
// position has no node on it, recomputeAux aliases the aux pointer to
// the key's owner through the owner-hint cache recorded here — the
// pointer sits exactly at the hot key, so next-hop selection picks it
// for that key's lookups and the owner finishes them in one hop via its
// ownership check. For lookups whose key is a node id (the control
// plane's joins and finger fixes), position and owner coincide and the
// behavior is unchanged.
func (n *Node) Lookup(key id.ID) (wire.Contact, int, error) {
	owner, hops, err := n.FindSuccessor(key)
	if err != nil {
		n.lookupFails.Add(1)
		return owner, hops, err
	}
	n.lookups.Add(1)
	n.lookupHops.Add(uint64(hops))
	if owner.ID != n.self.ID {
		n.window.Observe(key)
		if owner.Addr != "" {
			n.ownerHints.Put(key, owner, time.Now())
		}
	}
	return owner, hops, nil
}

// stabilize runs one maintenance round: the geometry's near-neighbor
// protocol first, then the runtime-owned pieces that are the same for
// every geometry — auxiliary liveness pings (Section III's point that
// auxiliary neighbors ride the same ping process as core ones), a
// replication push when the replica target set changed, and the heal
// probe that lets rings separated by a network partition find each
// other again once it lifts.
//
// Aux liveness is pinged per distinct address, not per entry: the
// owner-aliased entries for several hot keys of one owner, or a direct
// entry beside an alias to the same node, share an address, and that
// node answers for all of them at once.
func (n *Node) stabilize() {
	n.rt.Stabilize()
	aux := n.rt.Aux()
	live := make(map[string]bool, len(aux))
	for _, a := range aux {
		ok, pinged := live[a.Addr]
		if !pinged {
			_, err := n.call(a.Addr, &wire.Message{Type: wire.TPing})
			ok = err == nil
			live[a.Addr] = ok
		}
		if ok {
			continue
		}
		n.rt.RemoveAux(a.ID)
		// Also retire the caches the entry was installed from, or the
		// very next recompute would re-select the id, find the same dead
		// address, and reinstall the entry — an evict/reinstall loop that
		// never converges. Dropping the caches bounds eviction: once a
		// recompute runs after this round, the id either resolves to a
		// live address learned since or is skipped. (The aux id is a node
		// id for directly selected entries — forget its contact-cache
		// address — and a key position for owner-aliased ones —
		// invalidate its owner hint; the wrong-side call of each pair is
		// a no-op.)
		n.forgetAddr(a.ID, a.Addr)
		n.ownerHints.Invalidate(a.ID)
	}
	n.replicateOnSuccChange()
	n.healProbe()
}

// healProbe pings one random contact from the address cache and offers
// any live answer to the geometry's Heal. This is the partition-repair
// mechanism: the maintenance protocol only ever talks to nodes already
// in the routing state, so two overlays that diverged while a partition
// was up would otherwise never re-merge — every node of each side is
// perfectly happy with its own subring. The cache still remembers
// contacts from before the split, and once a single probe re-adopts a
// cross-ring neighbor, the ordinary maintenance rounds propagate the
// merge exactly as they integrate concurrent joins. A node that has
// collapsed to a ring of one adopts any live probed contact, which also
// re-enters a node that was fully isolated.
//
// The probe is a single attempt (no retries) so a dead or unreachable
// cache entry costs at most one RPCTimeout per stabilize round.
func (n *Node) healProbe() {
	if n.cfg.DisableHealProbe {
		return
	}
	c, ok := n.randomCached()
	if !ok {
		return
	}
	resp, err := n.tr.call(c.Addr, &wire.Message{Type: wire.TPing}, n.cfg.RPCTimeout, 0)
	if err != nil {
		return
	}
	live := resp.From
	if live.IsZero() || live.ID == n.self.ID || live.Addr == "" {
		return
	}
	n.noteContact(live)
	n.rt.Heal(live)
}

// SetAuxQoS flips latency-aware aux selection on or off at runtime —
// what lets a bench A/B hop-greedy against QoS placement on the same
// live overlay. It takes effect at the next aux recomputation.
func (n *Node) SetAuxQoS(on bool) { n.auxQoS.Store(on) }

// AuxQoSEnabled reports whether QoS-aware aux selection is active.
func (n *Node) AuxQoSEnabled() bool { return n.auxQoS.Load() }

// auxWindowBuckets is how many aux ticks the frequency window spans:
// an observation counts toward this many selections, then ages out.
const auxWindowBuckets = 4

// RecomputeAux recomputes the auxiliary neighbor set from the observed
// frequencies immediately (the ticker does the same on AuxEvery, plus a
// window rotation). It reports how many of the selected ids were
// routable; ids whose address the node has never learned are skipped.
func (n *Node) RecomputeAux() (int, error) {
	return n.recomputeAux(false)
}

func (n *Node) recomputeAux(rotate bool) (int, error) {
	ids, err := n.selectAux()
	if rotate {
		n.window.Rotate()
	}
	if err != nil {
		if errors.Is(err, core.ErrNoNeighbors) {
			return 0, nil // nothing observed and no core yet; keep waiting
		}
		return 0, err
	}
	aux := make([]wire.Contact, 0, len(ids))
	now := time.Now()
	for _, a := range ids {
		if addr, ok := n.addrOf(a); ok {
			aux = append(aux, wire.Contact{ID: a, Addr: addr})
			continue
		}
		// The selected id is a key's ring position, not a node the
		// cache knows: alias the aux pointer to the key's owner. The
		// entry sits exactly at the hot key, so next-hop selection picks
		// it for that key's lookups and the owner's ownership check
		// finishes them in one hop.
		if owner, ok := n.ownerHints.Get(a, now); ok {
			aux = append(aux, wire.Contact{ID: a, Addr: owner.Addr})
		}
	}
	n.rt.SetAux(aux)
	n.auxRecomps.Add(1)
	return len(aux), nil
}

// selectAux picks the next aux id set: it builds the selection
// instance from the window snapshot and the geometry's current core
// set, and the geometry solves it under its own distance metric. The
// plain instance is every observed peer with its raw count, self and
// core members excluded. With AuxQoS on, core.QoSInstance weights each
// count by the peer's measured RTT and bounds the far peers, and the
// geometry runs the paper's delay-bound-constrained selection. When
// the bounds are infeasible (no k-subset can give every far peer a
// direct pointer) the node drops the bounds but keeps the RTT costs:
// the retry is the unconstrained cost-weighted optimum, still
// latency-aware, rather than a silent reversion to hop-greedy. The
// fallback is counted so benches can see it.
func (n *Node) selectAux() ([]id.ID, error) {
	coreIDs := n.rt.CoreIDs()
	snap := n.window.Snapshot()
	k := n.cfg.AuxCount
	if !n.auxQoS.Load() {
		return n.rt.SelectAux(coreIDs, auxPeers(snap, n.self.ID, coreIDs), k, nil)
	}
	peers, bounds := core.QoSInstance(snap, n.self.ID, coreIDs, n.qosCost, n.qosBound)
	if bounds == nil {
		bounds = map[id.ID]uint{} // nothing bounded, still the QoS selector
	}
	ids, err := n.rt.SelectAux(coreIDs, peers, k, bounds)
	if errors.Is(err, core.ErrInfeasible) {
		n.auxQoSInfeasible.Add(1)
		ids, err = n.rt.SelectAux(coreIDs, peers, k, map[id.ID]uint{})
	}
	if err != nil {
		return nil, err
	}
	n.auxQoSSelects.Add(1)
	return ids, nil
}

// auxPeers is the plain selection instance: every observed peer with
// its raw window count, minus self and the core set.
func auxPeers(snap []freq.Entry, self id.ID, coreIDs []id.ID) []core.Peer {
	inCore := make(map[id.ID]bool, len(coreIDs))
	for _, c := range coreIDs {
		inCore[c] = true
	}
	peers := make([]core.Peer, 0, len(snap))
	for _, e := range snap {
		if e.Count > 0 && e.Peer != self && !inCore[e.Peer] {
			peers = append(peers, core.Peer{ID: e.Peer, Freq: float64(e.Count)})
		}
	}
	return peers
}

// peerRTT resolves the latency estimate behind one observed frequency
// id: directly for a node id the contact cache has timed, and through
// the owner-hint cache for a key's ring position (the aux pointer
// would alias to the owner, so the owner's RTT is the right cost).
func (n *Node) peerRTT(x id.ID) (time.Duration, bool) {
	if d, ok := n.ContactRTT(x); ok {
		return d, true
	}
	if owner, ok := n.ownerHints.Get(x, time.Now()); ok {
		return n.ContactRTT(owner.ID)
	}
	return 0, false
}

// qosCost is the QoS selection's cost callback: measured smoothed RTT
// in milliseconds. Unmeasured peers report false and weigh 1.
func (n *Node) qosCost(x id.ID) (float64, bool) {
	d, ok := n.peerRTT(x)
	if !ok {
		return 0, false
	}
	return float64(d) / float64(time.Millisecond), true
}

// qosBound is the QoS selection's bound callback: a peer whose
// smoothed RTT exceeds Config.AuxQoSDelayBound must not pay any extra
// routing hops — distance bound 0, a direct pointer. A negative
// configured bound disables bounding entirely.
func (n *Node) qosBound(x id.ID) (uint, bool) {
	if n.cfg.AuxQoSDelayBound < 0 {
		return 0, false
	}
	if d, ok := n.peerRTT(x); ok && d > n.cfg.AuxQoSDelayBound {
		return 0, true
	}
	return 0, false
}
