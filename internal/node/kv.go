package node

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"peercache/internal/id"
	"peercache/internal/replication"
	"peercache/internal/wire"
)

var (
	// ErrNotFound reports a GET for a key nobody stores.
	ErrNotFound = errors.New("node: key not found")
	// ErrStoreFull reports a PUT refused because the owner's store is at
	// capacity. The store never evicts to make room — see store's doc.
	ErrStoreFull = errors.New("node: store full")
)

// cachedCopy is a locally cached copy of a remote item, the paper's hot
// item kept at the requesting peer. Copies are read-through only: they
// are filled on the GET path, serve later GETs without any network
// traffic, expire on the item-cache TTL, and are invalidated by a local
// PUT. A remote writer's update is invisible until then — the TTL is
// the staleness bound.
type cachedCopy struct {
	value   []byte
	version uint64
}

// PutResult reports where a PUT landed.
type PutResult struct {
	// Owner is the node that accepted the value.
	Owner wire.Contact
	// Version is the item's new version at the owner (1 for a new key).
	Version uint64
	// Hops is the number of lookup RPCs spent resolving the owner; the
	// PUT RPC itself is not counted.
	Hops int
}

// GetResult carries a resolved value.
type GetResult struct {
	Value   []byte
	Version uint64
	// Hops is the number of lookup RPCs spent resolving the owner; the
	// GET RPC itself is not counted. 0 when served locally.
	Hops int
	// Local is true when the local store or the item cache supplied the
	// value.
	Local bool
}

// Put stores value under key. The key's owner is resolved with the same
// iterative lookup GETs use (so PUT traffic feeds auxiliary selection
// too), then receives the value in a PUT RPC — or stores it directly
// when this node turns out to be the owner. The owner assigns the
// version and replicates the item to its successors on the replication
// ticker.
func (n *Node) Put(key id.ID, value []byte) (PutResult, error) {
	if uint64(key) >= n.cfg.Space.Size() {
		return PutResult{}, fmt.Errorf("node: key %d outside %d-bit space", key, n.cfg.Space.Bits())
	}
	if err := checkValueLen(key, value); err != nil {
		return PutResult{}, err
	}
	n.putsIssued.Add(1)
	if n.cache != nil {
		// Never serve our own overwritten value from a stale copy.
		n.cache.Invalidate(key)
	}
	owner, hops, err := n.Lookup(key)
	if err != nil {
		return PutResult{}, err
	}
	if owner.ID == n.self.ID {
		version, ok := n.store.putOwned(key, value, time.Now())
		if !ok {
			return PutResult{}, fmt.Errorf("node: put %d: %w", key, ErrStoreFull)
		}
		return PutResult{Owner: owner, Version: version, Hops: hops}, nil
	}
	resp, err := n.call(owner.Addr, &wire.Message{Type: wire.TPut, Key: key, Value: value})
	if err != nil {
		return PutResult{}, fmt.Errorf("node: put %d at %v: %w", key, owner, err)
	}
	if !resp.OK {
		return PutResult{}, fmt.Errorf("node: put %d at %v: %w", key, owner, ErrStoreFull)
	}
	return PutResult{Owner: owner, Version: resp.Version, Hops: hops}, nil
}

// checkValueLen refuses a single value above the wire limit; the chunk
// layer is the way to move larger objects.
func checkValueLen(key id.ID, value []byte) error {
	if len(value) <= wire.MaxValueLen {
		return nil
	}
	return fmt.Errorf("node: put %d: %w: value is %d bytes, limit %d — chunk large objects (internal/chunk, p2pstream)",
		key, wire.ErrValueLen, len(value), wire.MaxValueLen)
}

// Get resolves key to its value: first from the local store when this
// node owns the key, then from the item cache (a hot item fetched
// before), and only then over the network — resolve the owner with the
// frequency-observed iterative lookup and fetch the value with a GET
// RPC, caching the copy for subsequent calls. The local tiers never
// misreport absence: a store or cache miss falls through to the owner,
// and only the owner's answer produces ErrNotFound.
//
// A replica copy held here is not the owner's answer: it can be one
// anti-entropy round behind an overwrite, and a node that owned the key
// before a partition healed holds exactly such a copy. So Get is the
// authoritative read the chunk layer's StrongGet escalates to, and a
// held replica answers only when the network read fails.
func (n *Node) Get(key id.ID) (GetResult, error) {
	if uint64(key) >= n.cfg.Space.Size() {
		return GetResult{}, fmt.Errorf("node: key %d outside %d-bit space", key, n.cfg.Space.Bits())
	}
	n.getsIssued.Add(1)
	now := time.Now()
	value, version, held := n.store.get(key)
	if held && n.rt.Owns(key) {
		n.storeHits.Add(1)
		return GetResult{Value: value, Version: version, Local: true}, nil
	}
	if n.cache != nil {
		if c, ok := n.cache.Get(key, now); ok {
			n.cacheHits.Add(1)
			return GetResult{Value: c.value, Version: c.version, Local: true}, nil
		}
	}
	res, err := n.getFromOwner(key, now)
	if err != nil && held {
		// No copy came back from the network: the replica held here is
		// the best answer left.
		n.storeHits.Add(1)
		return GetResult{Value: value, Version: version, Hops: res.Hops, Local: true}, nil
	}
	return res, err
}

// getFromOwner is Get's network read: resolve the owner with the
// frequency-observed lookup and fetch the value with a GET RPC, caching
// the copy.
func (n *Node) getFromOwner(key id.ID, now time.Time) (GetResult, error) {
	owner, hops, err := n.Lookup(key)
	if err != nil {
		return GetResult{Hops: hops}, err
	}
	if owner.ID == n.self.ID {
		// We own the key and the store already missed.
		return GetResult{Hops: hops}, fmt.Errorf("node: get %d: %w", key, ErrNotFound)
	}
	resp, err := n.call(owner.Addr, &wire.Message{Type: wire.TGet, Key: key})
	if err != nil {
		// The resolved owner is unreachable. Any replica holder can
		// still serve the read under the bounded-staleness contract (its
		// copy is at worst one anti-entropy round behind the last acked
		// write), so race a value-mode lookup that terminates at the
		// first copy holder before giving up. The seed adds our own
		// successor list to the geometry's candidates: ring geometries
		// exclude contacts past the key as routing overshoot, but
		// replicas live exactly there (the owner's successors), and
		// value mode's bidirectional ranking probes whichever side of
		// the key is nearer.
		seed := append(n.rt.Candidates(key, n.cfg.LookupAlpha), n.rt.Successors()...)
		if out, rerr := n.race(key, seed, true); rerr == nil {
			if n.cache != nil {
				n.cache.Put(key, cachedCopy{value: out.value, version: out.version}, now)
			}
			return GetResult{Value: out.value, Version: out.version, Hops: hops + out.hops}, nil
		}
		return GetResult{Hops: hops}, fmt.Errorf("node: get %d at %v: %w", key, owner, err)
	}
	if !resp.OK {
		return GetResult{Hops: hops}, fmt.Errorf("node: get %d at %v: %w", key, owner, ErrNotFound)
	}
	if n.cache != nil {
		n.cache.Put(key, cachedCopy{value: resp.Value, version: resp.Version}, now)
	}
	return GetResult{Value: resp.Value, Version: resp.Version, Hops: hops}, nil
}

// handlePut, handleGet, and handleReplicate run on the read-loop
// goroutine (see handle): store calls only, no I/O beyond the one reply
// the caller sends.

func (n *Node) handlePut(m *wire.Message, resp *wire.Message) {
	n.putsServed.Add(1)
	version, ok := n.store.putOwned(m.Key, m.Value, time.Now())
	resp.OK, resp.Version = ok, version
}

func (n *Node) handleGet(m *wire.Message, resp *wire.Message) {
	n.getsServed.Add(1)
	if value, version, owned, ok := n.store.info(m.Key); ok {
		resp.OK, resp.Value, resp.Version = true, value, version
		if !owned {
			n.replicaServes.Add(1)
		}
	}
}

// handleFindValue answers one step of a Kademlia-style value lookup:
// the value itself when the local store holds the key (as owner or
// replica holder), otherwise the closest known contacts toward it, in
// the canonical strictly-ascending id order (the querier re-ranks by
// its own distance metric; see wire.Message.Closest).
func (n *Node) handleFindValue(m *wire.Message, resp *wire.Message) {
	n.getsServed.Add(1)
	if value, version, owned, ok := n.store.info(m.Key); ok {
		resp.OK, resp.Value, resp.Version = true, value, version
		if !owned {
			n.replicaServes.Add(1)
		}
		return
	}
	// When this node sits in the key's neighborhood — its next hop for
	// the key is terminal — the head of the successor list joins the
	// routing candidates: that names the key's owner AND its replica
	// targets, which ring candidate selection excludes as routing
	// overshoot. A value walk needs exactly those contacts when the
	// owner is unreachable and a replica must answer. Successors go
	// first (nearest first, capped to half the list) so capacity
	// pressure sheds far-away routing candidates, not the neighborhood.
	// Far nodes must NOT advertise successors: a reader whose own id
	// sits just past the key would otherwise see every answerer's
	// successor chain rank as near-the-key (small reverse distance)
	// and crawl away from the owner until the hop budget burns out.
	var pool []wire.Contact
	if _, done := n.rt.NextHop(m.Key); done {
		pool = n.rt.Successors()
		if len(pool) > wire.MaxClosest/2 {
			pool = pool[:wire.MaxClosest/2]
		}
	}
	pool = append(pool, n.rt.Candidates(m.Key, wire.MaxClosest)...)
	// A ring member is never named back to itself. An anonymous reader's
	// zero From names nobody, and filtering its id 0 would hide the
	// member with id 0 from every client.
	querier := m.From.Addr != ""
	seen := make(map[id.ID]bool, len(pool))
	closest := make([]wire.Contact, 0, wire.MaxClosest)
	for _, c := range pool {
		if c.IsZero() || c.Addr == "" || (querier && c.ID == m.From.ID) || seen[c.ID] {
			continue
		}
		seen[c.ID] = true
		closest = append(closest, c)
		if len(closest) == wire.MaxClosest {
			break
		}
	}
	slices.SortFunc(closest, func(a, b wire.Contact) int {
		return cmp.Compare(a.ID, b.ID)
	})
	resp.Closest = closest
}

// FindValue resolves key to its value with the Kademlia-style combined
// walk: the local store answers outright, then the item cache, then an
// α-parallel race of TFindValue probes that terminates at the first
// peer holding a copy — owner or replica — rather than first resolving
// the owner and then fetching. Successful remote reads feed the
// frequency observer and the item cache exactly like Get.
func (n *Node) FindValue(key id.ID) (GetResult, error) {
	if uint64(key) >= n.cfg.Space.Size() {
		return GetResult{}, fmt.Errorf("node: key %d outside %d-bit space", key, n.cfg.Space.Bits())
	}
	n.getsIssued.Add(1)
	now := time.Now()
	if value, version, ok := n.store.get(key); ok {
		n.storeHits.Add(1)
		return GetResult{Value: value, Version: version, Local: true}, nil
	}
	if n.cache != nil {
		if c, ok := n.cache.Get(key, now); ok {
			n.cacheHits.Add(1)
			return GetResult{Value: c.value, Version: c.version, Local: true}, nil
		}
	}
	out, err := n.race(key, n.rt.Candidates(key, n.cfg.LookupAlpha), true)
	if err != nil {
		n.lookupFails.Add(1)
		return GetResult{Hops: out.hops}, fmt.Errorf("node: get %d: %w", key, err)
	}
	n.lookups.Add(1)
	n.lookupHops.Add(uint64(out.hops))
	if out.owner.ID != n.self.ID {
		n.window.Observe(key)
	}
	if n.cache != nil {
		n.cache.Put(key, cachedCopy{value: out.value, version: out.version}, now)
	}
	return GetResult{Value: out.value, Version: out.version, Hops: out.hops}, nil
}

func (n *Node) handleReplicate(m *wire.Message) {
	n.replicasIn.Add(1)
	n.store.applyReplica(m.Key, m.Value, m.Version, time.Now())
}

// handleReplicateDigest answers one anti-entropy digest batch: the Need
// list is the subset of digest keys whose local copy is missing, older,
// or checksum-divergent. Matching entries have their TTL refreshed by
// needFromDigest — the digest doubles as the owner's liveness signal,
// exactly what a redundant full push used to provide, which is what
// keeps healthy replicas out of the stranded-repair pass. The digest
// arrives strictly ascending by key (the codec enforces it), so the
// Need subset is born in canonical order.
func (n *Node) handleReplicateDigest(m *wire.Message, resp *wire.Message) {
	n.digestsIn.Add(1)
	now := time.Now()
	for _, e := range m.Digest {
		if n.store.needFromDigest(e.Key, e.Version, e.Sum, now) {
			resp.Need = append(resp.Need, e.Key)
		}
	}
}

// Item reports the value this node itself stores under key — as owner
// or replica holder — without network traffic, frequency observation,
// or cache consultation. Introspection only (tests, tooling); use Get
// to read through the overlay.
func (n *Node) Item(key id.ID) (value []byte, version uint64, ok bool) {
	return n.store.get(key)
}

// ItemInfo is ItemDetail's snapshot of one locally stored item.
type ItemInfo struct {
	Value   []byte
	Version uint64
	// Owned distinguishes an owned copy from a replica — the authority
	// split the exactly-one-owner invariant checker counts across a
	// cluster.
	Owned bool
}

// ItemDetail is Item plus the copy's authority, again without network
// traffic or cache consultation. Introspection only.
func (n *Node) ItemDetail(key id.ID) (ItemInfo, bool) {
	value, version, owned, ok := n.store.info(key)
	if !ok {
		return ItemInfo{}, false
	}
	return ItemInfo{Value: value, Version: version, Owned: owned}, true
}

// ReplicationRound runs one reconciliation and replication pass. The
// ticker calls it every ReplicateEvery; stabilize calls it early when
// the replica target set changes. The pass is anti-entropy, but
// digest-based: instead of re-pushing every owned item to every target
// each round (the PR 3 protocol, whose per-round bytes grow with the
// whole keyspace), the owner summarizes its owned items into
// (key, version, checksum) digest batches, each target answers with the
// keys it actually needs, and only those diffs travel as one-way
// Replicate pushes. A target that does not answer a digest gets the
// full push of that batch as fallback, so coverage never regresses —
// lost datagrams, churned successors, and healed partitions still
// converge without acks or retransmit state. The authority predicate
// comes from the routing geometry (Chord: `(pred, self]`; Pastry:
// numeric closeness over the leaf set); while the geometry cannot tell
// yet, reconciliation skips promotion/demotion.
func (n *Node) ReplicationRound() {
	now := time.Now()
	responsible, ok := n.rt.Responsible()
	if !ok {
		responsible = nil
	}
	promoted, handoff := n.store.reconcile(responsible)
	n.promotions.Add(uint64(promoted))
	n.demotions.Add(uint64(len(handoff)))
	// Hand demoted items to their new owner. Loss is tolerable: the item
	// stays here as a replica, and in the scenarios that demote (a
	// healed partition, a join splitting our range) the new owner has
	// been accumulating the key's traffic anyway.
	for _, it := range handoff {
		owner, _, err := n.FindSuccessor(it.key)
		if err != nil || owner.ID == n.self.ID || owner.Addr == "" {
			continue
		}
		n.sendReplica(owner.Addr, it)
	}
	// Re-home stranded replicas: a live owner refreshes its replicas
	// every round — with a digest confirmation now, with a full push
	// before — so a replica that has gone several periods without a
	// refresh has lost its owner somewhere a one-shot handoff could not
	// reach (crash after demotion, push dropped across a partition).
	// Resolve the key's current owner and push the copy there; the owner
	// stores it as a replica and its own reconciliation promotes it to
	// owned, closing the loop without any new message type. Items this
	// node itself has become responsible for don't need the network trip:
	// reconcile above already promoted them.
	n.repairStranded(now)
	targets := n.replicaTargets()
	if len(targets) == 0 {
		return
	}
	owned := n.store.owned()
	if len(owned) == 0 {
		return
	}
	// Digest batches must be strictly ascending by key (the canonical
	// wire order), and sorting once serves every target.
	slices.SortFunc(owned, func(a, b ownedItem) int { return cmp.Compare(a.key, b.key) })
	for _, t := range targets {
		n.replicateTo(t, owned)
	}
}

// replicateTo runs the digest protocol against one replica target: the
// sorted owned items are summarized into MaxDigestEntries-sized digest
// batches, the target answers each with the keys it needs (absent,
// older, or checksum-divergent there), and only those diffs ship as
// Replicate datagrams. The digest RPC is a single attempt — a target
// that misses one digest costs this round a full push of the batch (the
// fallback, also taken against pre-digest peers that never answer), not
// a retry stall; the next round digests again.
//
// Byte accounting: ReplBytesOut accumulates what the protocol actually
// sent (digest requests, diffs, fallback pushes; the target's responses
// are counted on its side), ReplBytesFullPush what the pre-digest
// protocol would have sent for the same batches — every item, every
// round. The pair makes the anti-entropy reduction measurable in a
// single run, with no baseline at equal scale needed.
func (n *Node) replicateTo(t wire.Contact, owned []ownedItem) {
	for start := 0; start < len(owned); start += wire.MaxDigestEntries {
		batch := owned[start:min(start+wire.MaxDigestEntries, len(owned))]
		full := uint64(0)
		for _, it := range batch {
			full += replicateWireSize(len(n.self.Addr), len(it.value))
		}
		n.replBytesFull.Add(full)
		digest := make([]wire.DigestEntry, len(batch))
		for i, it := range batch {
			digest[i] = wire.DigestEntry{Key: it.key, Version: it.version, Sum: it.sum}
		}
		req := &wire.Message{Type: wire.TReplicateDigest, From: n.self, Digest: digest}
		if b, err := wire.Encode(req); err == nil {
			n.replBytesOut.Add(uint64(len(b)))
		}
		n.digestsOut.Add(1)
		resp, err := n.tr.call(t.Addr, req, n.cfg.RPCTimeout, 0)
		if err != nil {
			n.fullPushes.Add(1)
			for _, it := range batch {
				n.replBytesOut.Add(uint64(n.sendReplica(t.Addr, it)))
			}
			continue
		}
		if len(resp.Need) == 0 {
			continue
		}
		n.diffKeysOut.Add(uint64(len(resp.Need)))
		need := make(map[id.ID]bool, len(resp.Need))
		for _, k := range resp.Need {
			need[k] = true
		}
		for _, it := range batch {
			if need[it.key] {
				n.replBytesOut.Add(uint64(n.sendReplica(t.Addr, it)))
			}
		}
	}
}

// replicateWireSize is the encoded size of one Replicate datagram:
// envelope (version 1 + type 1 + msgid 8 + contact id 8 + addr length
// prefix 1 + addr) + key 8 + value length prefix 2 + value + version 8.
// Pinned to the codec by a test so the full-push-equivalent accounting
// cannot drift from what the wire actually costs.
func replicateWireSize(addrLen, valueLen int) uint64 {
	return uint64(37 + addrLen + valueLen)
}

// Stranded-repair pacing: a replica is presumed ownerless after
// strandedAfterPeriods replication periods without a refresh, and one
// round re-homes at most strandedRepairBatch of them (each repair costs
// an iterative lookup plus one replicate datagram).
const (
	strandedAfterPeriods = 3
	strandedRepairBatch  = 32
)

func (n *Node) repairStranded(now time.Time) {
	if n.cfg.ReplicateEvery <= 0 {
		return
	}
	stale := n.store.staleReplicas(now, strandedAfterPeriods*n.cfg.ReplicateEvery, strandedRepairBatch)
	for _, it := range stale {
		owner, _, err := n.FindSuccessor(it.key)
		if err != nil || owner.ID == n.self.ID || owner.Addr == "" {
			continue
		}
		n.strandedRepairs.Add(1)
		n.sendReplica(owner.Addr, it)
	}
}

// sendReplica pushes one item as a one-way Replicate datagram and
// returns the bytes written (0 on a failed send), so callers on the
// anti-entropy path can attribute the traffic to ReplBytesOut.
func (n *Node) sendReplica(addr string, it ownedItem) int {
	n.replicasOut.Add(1)
	return n.tr.send(addr, &wire.Message{Type: wire.TReplicate, From: n.self, Key: it.key, Value: it.value, Version: it.version})
}

// replicaTargets resolves replication.Targets against the geometry's
// near-neighbor list, keeping the contacts' addresses.
func (n *Node) replicaTargets() []wire.Contact {
	succs := n.rt.Successors()
	ids := make([]id.ID, len(succs))
	addrs := make(map[id.ID]string, len(succs))
	for i, s := range succs {
		ids[i] = s.ID
		if _, ok := addrs[s.ID]; !ok {
			addrs[s.ID] = s.Addr
		}
	}
	tids := replication.Targets(n.self.ID, ids, n.cfg.ReplicationFactor)
	out := make([]wire.Contact, 0, len(tids))
	for _, t := range tids {
		if addrs[t] != "" {
			out = append(out, wire.Contact{ID: t, Addr: addrs[t]})
		}
	}
	return out
}

// replicateOnSuccChange triggers a replication round as soon as the
// replica target set differs from the one last pushed to, so a new or
// recovered successor receives its copies within a stabilize period
// instead of a replication period.
func (n *Node) replicateOnSuccChange() {
	if n.cfg.ReplicationFactor < 2 || n.cfg.ReplicateEvery <= 0 {
		return
	}
	targets := n.replicaTargets()
	ids := make([]id.ID, len(targets))
	for i, t := range targets {
		ids[i] = t.ID
	}
	n.replMu.Lock()
	changed := !slices.Equal(ids, n.lastReplTargets)
	if changed {
		n.lastReplTargets = ids
	}
	n.replMu.Unlock()
	if changed {
		n.ReplicationRound()
	}
}
