// Package ring defines the contract between the protocol-agnostic live
// node runtime (internal/node) and a pluggable routing geometry. The
// runtime owns everything a geometry should not care about — the
// datagram transport, RPC timeouts and retries, the iterative lookup
// driver, the kv data plane, replication, the contact cache, liveness,
// and the tickers — while the geometry owns the routing state and the
// decisions only it can make: the next hop toward a key, whether this
// node is responsible for a key, which wire messages each maintenance
// tick sends, and how incoming protocol requests mutate the table.
// A geometry asks Host.Alive whether an entry lives, sends no ping of
// its own, and evicts nothing: a failed RPC makes its target a suspect,
// and only a failed Alive evicts, in the runtime.
//
// Three geometries implement the contract today: chordring (successor
// list + finger table + `(pred, self]` ownership, the default),
// pastryring (leaf set + prefix routing table + numeric-closeness
// ownership), and kadring (XOR-metric k-buckets + closest-node
// ownership). The paper's auxiliary-neighbor layer rides on top of any
// of them: the runtime observes lookup frequencies, triggers selection
// and maps the chosen ids to contacts, and a geometry supplies only its
// distance metric, through SelectAux, and embeds an AuxSet to hold the
// installed set.
//
// Adding a geometry means implementing Routing and passing its Factory
// as node.Config.NewRing; the runtime, data plane, cluster harness, and
// cmd/p2pnode need no changes. See DESIGN.md's "Routing contract"
// section for the step-by-step recipe.
package ring

import (
	"peercache/internal/core"
	"peercache/internal/id"
	"peercache/internal/wire"
)

// Host is the runtime surface a Routing implementation programs
// against. All methods are safe for concurrent use. Call, Resolve and
// Alive perform network I/O and must not be used from HandleRequest
// (which runs on the read loop); Send is fire-and-forget and is safe
// anywhere.
type Host interface {
	// Self returns this node's own contact.
	Self() wire.Contact
	// Space returns the identifier space.
	Space() id.Space
	// Call issues one RPC with the node's timeout/retry policy.
	Call(addr string, req *wire.Message) (*wire.Message, error)
	// Send transmits one datagram without waiting for a response. The
	// geometry must fill every field including From.
	Send(addr string, m *wire.Message)
	// Resolve runs a full iterative lookup for target through the
	// runtime's retry/hop-count machinery (chordring's finger refresh
	// uses it; a geometry that repairs purely by gossip never needs it).
	Resolve(target id.ID) (wire.Contact, int, error)
	// Note records a contact in the runtime's address cache, the pool
	// the heal probe samples and aux aliasing resolves against.
	Note(c wire.Contact)
	// Alive reports whether the endpoint at addr lives: true without
	// I/O when addr was heard from within one StabilizeEvery, else
	// whether it answers one ping under Call's policy. A false answer
	// has already evicted every contact cached at addr through
	// Routing.DropPeer, so the caller must not hold its own lock.
	Alive(addr string) bool
}

// Options carries the geometry-relevant slice of node.Config.
type Options struct {
	// NeighborListLen bounds the geometry's near-neighbor list: the
	// successor list in Chord, one leaf-set side in Pastry.
	NeighborListLen int
	// BucketSize bounds one k-bucket in Kademlia (0 means the
	// geometry's default, 20); the ring geometries ignore it.
	BucketSize int
	// MaxLookupHops bounds join walks and lookups.
	MaxLookupHops int
	// RepairBatch is how many long-range table entries one RepairTable
	// call refreshes (0 or 1: one per call, the historical behavior).
	// Chord honors it — each extra finger costs one iterative lookup per
	// tick but divides the table's full refresh time, which dominates
	// cold-start convergence at large n. Pastry and Kademlia repair by
	// row exchange / bucket refresh and ignore it.
	RepairBatch int
}

// Routing is a live routing geometry. The runtime calls NextHop,
// Owns, Responsible, and HandleRequest from the read loop and from
// concurrent lookups, and the maintenance methods from its tickers, so
// implementations guard their state with their own lock and never
// perform I/O except through the Host — and never from HandleRequest.
type Routing interface {
	// Protocol names the geometry ("chord", "pastry", "kademlia");
	// surfaced in metrics and logs.
	Protocol() string

	// Join integrates the node into an existing overlay through a peer
	// at bootstrap. It must detect a duplicate identifier and return an
	// error without corrupting the remote ring.
	Join(bootstrap string) error

	// NextHop answers one step of an iterative lookup: the contact to
	// forward to, or (with done) the contact that resolves target. The
	// runtime uses it both to answer TFindSucc from peers and as the
	// first step of its own lookups; auxiliary entries installed via
	// SetAux must be considered here — that splice is the paper's whole
	// mechanism.
	NextHop(target id.ID) (hop wire.Contact, done bool)

	// LookupRequest returns the wire request that advances an iterative
	// lookup for target by one step at a remote peer: TFindSucc for the
	// ring geometries, TFindNode for Kademlia. The runtime's lookup
	// driver fills MsgID and From.
	LookupRequest(target id.ID) *wire.Message

	// ParseLookupResponse interprets one peer's answer to LookupRequest:
	// done with the resolving contact, or further candidates to probe
	// (for the ring geometries the single redirect contact, for Kademlia
	// the closest-contact list). The geometry may fold learned contacts
	// into its own table — the call runs off the read loop — but must
	// not perform I/O. The driver validates candidates (drops zero
	// contacts, itself, and peers it already probed).
	ParseLookupResponse(target id.ID, resp *wire.Message) (found wire.Contact, done bool, candidates []wire.Contact)

	// Distance ranks lookup candidates for target — smaller is closer:
	// clockwise gap from the candidate to target for Chord, circular
	// distance for Pastry, XOR for Kademlia. The α-parallel lookup
	// driver keeps its probe frontier ordered by it.
	Distance(target, candidate id.ID) uint64

	// Candidates returns up to max distinct next-hop candidates for
	// target in the geometry's preference order, best first; when a
	// lookup is not already done, the first entry must be the same
	// contact NextHop would return, so an α=1 lookup reproduces the
	// serial probe sequence exactly. The driver seeds its frontier from
	// it, and the runtime answers FindValue redirects with it.
	Candidates(target id.ID, max int) []wire.Contact

	// Owns reports whether this node is currently responsible for key.
	// The lookup path uses it so an owner claims its keys outright (in
	// particular when a position-aliased aux pointer lands a lookup
	// directly on the owner).
	Owns(key id.ID) bool

	// Responsible returns the data plane's authority predicate for
	// store reconciliation, or ok=false while the geometry cannot yet
	// tell (e.g. Chord before a predecessor is known) — the store then
	// skips promotions and demotions for the round.
	Responsible() (pred func(key id.ID) bool, ok bool)

	// HandleRequest answers a geometry-specific request (for Chord
	// TGetPred/TNotify, for Pastry TRowExchange/TLeafProbe) by filling
	// resp, whose MsgID and From the runtime has set. It returns false
	// for types the geometry does not own, and must not block: local
	// state (plus at most Host.Note) and one reply only — never Call,
	// Send, or Resolve, which would stall the read loop.
	HandleRequest(req *wire.Message, resp *wire.Message) bool

	// Stabilize runs one near-neighbor maintenance round (Chord:
	// successor/predecessor stabilization; Pastry: leaf-set probes).
	Stabilize()

	// RepairTable runs one long-range-table maintenance step (Chord:
	// fix one finger; Pastry: probe one prefix-table entry).
	RepairTable()

	// Heal offers a live contact rediscovered by the runtime's heal
	// probe; the geometry folds it back in if it improves the table.
	Heal(live wire.Contact)

	// DropPeer retires an unreachable peer from all routing state. Only
	// the runtime calls it, when a liveness check fails; a geometry
	// never does, not even on a failed RPC.
	DropPeer(x id.ID)

	// Successors returns the contacts that replicas of owned items go
	// to, nearest first (Chord: the successor list; Pastry: the
	// clockwise leaf-set side). Empty when the node is alone.
	Successors() []wire.Contact
	// Predecessor returns the nearest counter-clockwise neighbor.
	Predecessor() (wire.Contact, bool)

	// TableList returns the populated long-range table entries.
	TableList() []wire.Contact

	// CoreIDs returns the geometry's core neighbor set N_s (eq. 1 of
	// the paper) — every peer the table routes through, self excluded —
	// which aux selection works around.
	CoreIDs() []id.ID

	// SelectAux is the geometry's half of the paper's selection layer:
	// the k auxiliary ids minimizing Σ f(v)·d(v, core ∪ A) under the
	// geometry's distance metric, for the observed peers (core members
	// and self already filtered out). With bounds nil it runs the
	// unconstrained selector; with bounds non-nil — even empty — the
	// delay-bound-constrained one (the paper's Section IV-D for the
	// prefix metrics, V-C for Chord), where bounds[v] is a hard distance
	// bound for v and 0 forces a direct pointer. It returns
	// core.ErrNoNeighbors while there is nothing to select from and an
	// error wrapping core.ErrInfeasible when the bounds cannot all be
	// met with k pointers. It must be a pure function of its arguments.
	SelectAux(coreIDs []id.ID, peers []core.Peer, k int, bounds map[id.ID]uint) ([]id.ID, error)

	// Aux, HasAux, SetAux, and RemoveAux manage the installed auxiliary
	// neighbor set A_s; every geometry gets them by embedding an AuxSet.
	// The runtime owns selection and liveness; the geometry only splices
	// the set into NextHop and Candidates, and retires an entry in its
	// own DropPeer.
	Aux() []wire.Contact
	HasAux(x id.ID) bool
	SetAux(aux []wire.Contact)
	RemoveAux(x id.ID)
}

// Factory builds a geometry bound to a Host. It must not perform
// network I/O: the transport is not running yet when it is called.
type Factory func(h Host, o Options) (Routing, error)
