// Package kadring is the Kademlia geometry of the live node runtime:
// XOR-metric routing over k-buckets behind the protocol-agnostic
// ring.Routing contract. Bucket i holds up to BucketSize contacts whose
// ids share exactly i leading bits with self (equivalently, whose XOR
// distance has its top set bit at position i), kept in
// least-recently-seen-first order with a bounded replacement cache per
// bucket. Kademlia's cardinal rule — never evict a live contact for a
// new one — is honored by deferring eviction to the maintenance
// tickers: learning a contact for a full bucket only queues it as a
// replacement candidate, and the next Stabilize round checks the
// bucket's least-recently-seen entry, promoting the newest candidate
// only if the check fails (HandleRequest runs on the read loop and must
// not block on I/O, so it can never ping-before-evict inline). The check
// is Host.Alive, which pings only a contact not heard from recently, and
// a failed one has already evicted the entry in the runtime.
//
// Lookups ride the runtime's α-parallel iterative driver with the
// Kademlia wire pair: LookupRequest is TFindNode, and a TFindNodeResp
// either resolves the target (the answerer knows nothing XOR-closer
// than itself, or holds the target id in a bucket) or redirects with
// its closest known contacts, which the driver re-ranks by XOR
// distance. Ownership is XOR closeness: a node owns every key no known
// contact is strictly closer to — and since XOR(a, k) == XOR(b, k)
// forces a == b, distinct nodes are never equidistant from a key, so
// the rule needs no tie-break.
//
// Buckets admit only contacts heard from directly — a request's or
// response's sender. Contacts relayed in a closest list are hearsay:
// they queue in a bounded adoption list and enter a bucket only after a
// Stabilize round checks them alive, the same rule pastryring applies to
// gossiped candidates — otherwise dead nodes circulate forever between
// peers that evict and re-learn them from each other's answers.
//
// A bucket refresh (RepairTable) is Kademlia's: a FIND_NODE walk for a
// random id in the bucket's subtree, whose answers fill the table. The
// walk reads every answer, an owner's Done answer included, whose
// closest list names the region's members; it stops at the first
// answer that names an owner outside the region, because a region with
// any member owns every target in its subtree, and it stops once the
// bucket is full or the frontier names no region member the bucket
// lacks. So a cold bucket fills in a sweep or two, and a walk that can
// learn nothing costs one probe.
//
// Aux selection reuses the Pastry selectors: the residual distance
// after a first hop to w is the index of the target's k-bucket at w,
// b − LCP(w, target) — the same form as the Pastry prefix distance, so
// the paper's O(nkb) greedy selector applies with only the metric
// reinterpreted. Auxiliary entries are spliced into NextHop and
// Candidates exactly like bucket contacts but never answer peers'
// TFindNode requests: an aux id may be a key position aliased to the
// owner's address, and leaking it into a TFindNodeResp would pollute
// other nodes' buckets with a phantom id.
package kadring

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"peercache/internal/core"
	"peercache/internal/id"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// DefaultBucketSize is Kademlia's k when ring.Options.BucketSize is 0 —
// the paper value 20.
const DefaultBucketSize = 20

// replacementCap bounds one bucket's replacement cache: the candidates
// waiting for a dead entry to vacate a slot. Newest-last; a full cache
// drops its oldest candidate.
const replacementCap = 4

// evictChecksPerRound bounds how many buckets one Stabilize round
// checks for eviction, so a burst of replacement candidates cannot
// stretch a round by more than this many RPC timeouts.
const evictChecksPerRound = 4

// pendingCap bounds the adoption queue of hearsay contacts awaiting a
// liveness check; a full queue drops its oldest candidate.
const pendingCap = 32

// adoptsPerRound bounds how many queued candidates one Stabilize round
// checks for adoption.
const adoptsPerRound = 4

// Ring is the Kademlia routing state plus the maintenance protocol over
// it. Methods take the lock briefly and perform I/O only through the
// Host, so the runtime may call them from the read loop (NextHop, Owns,
// HandleRequest, Candidates) and its tickers concurrently.
type Ring struct {
	h          ring.Host
	space      id.Space
	self       wire.Contact
	maxHops    int
	neighbors  int
	bucketSize int

	mu sync.RWMutex
	// buckets[i] holds contacts with CommonPrefixLen(self, c) == i,
	// least-recently-seen first (index 0 is the next eviction check).
	buckets [][]wire.Contact
	// repl[i] is bucket i's replacement cache, oldest candidate first.
	repl [][]wire.Contact
	// pending holds hearsay contacts (closest-list entries) awaiting a
	// liveness check before bucket admission, oldest first.
	pending []wire.Contact

	ring.AuxSet // auxiliary neighbors, the paper's A_s; read without mu

	nextEvict  uint       // round-robin cursor for Stabilize's eviction checks
	nextBucket uint       // round-robin cursor for RepairTable
	rng        *rand.Rand // refresh-target randomization; guarded by mu
}

// New builds the Kademlia geometry. Pass it as node.Config.NewRing to
// run a Kademlia node.
func New(h ring.Host, o ring.Options) (ring.Routing, error) {
	space, self := h.Space(), h.Self()
	k := o.BucketSize
	if k == 0 {
		k = DefaultBucketSize
	}
	if k < 1 {
		return nil, fmt.Errorf("kadring: bucket size %d < 1", k)
	}
	r := &Ring{
		h:          h,
		space:      space,
		self:       self,
		maxHops:    o.MaxLookupHops,
		neighbors:  o.NeighborListLen,
		bucketSize: k,
		buckets:    make([][]wire.Contact, space.Bits()),
		repl:       make([][]wire.Contact, space.Bits()),
		rng:        rand.New(rand.NewSource(int64(self.ID) + 1)),
	}
	return r, nil
}

// Protocol implements ring.Routing.
func (r *Ring) Protocol() string { return "kademlia" }

// xorDist is the XOR metric. Distinct ids always have distinct
// distances from any key, so "strictly closer" is never ambiguous.
func (r *Ring) xorDist(a, b id.ID) uint64 {
	return uint64(a) ^ uint64(b)
}

// bucketIndex is the index of the bucket holding x: the length of the
// common prefix with self. Only defined for x != self.
func (r *Ring) bucketIndex(x id.ID) uint {
	return r.space.CommonPrefixLen(r.self.ID, x)
}

// Join enters the overlay by walking a FIND_NODE lookup for the node's
// own id outward from the bootstrap peer, probing each discovered
// contact nearest-first until the frontier is exhausted or the hop
// budget is spent. Every answering contact is direct evidence and goes
// straight into its bucket — the walk is Kademlia's join: locating
// yourself populates the buckets on the path, and answering nodes learn
// the joiner from the request's From. A duplicate id surfaces as a
// contact carrying the joiner's id with a different address in any
// answer.
func (r *Ring) Join(bootstrap string) error {
	seen := map[id.ID]bool{r.self.ID: true}
	var frontier []wire.Contact
	push := func(c wire.Contact) {
		if c.IsZero() || c.Addr == "" || seen[c.ID] {
			return
		}
		seen[c.ID] = true
		frontier = append(frontier, c)
	}
	pop := func() (wire.Contact, bool) {
		if len(frontier) == 0 {
			return wire.Contact{}, false
		}
		best := 0
		for i := range frontier {
			if r.xorDist(frontier[i].ID, r.self.ID) < r.xorDist(frontier[best].ID, r.self.ID) {
				best = i
			}
		}
		c := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		return c, true
	}
	cur := wire.Contact{Addr: bootstrap}
	contacted := false
	for hops := 0; hops <= r.maxHops; hops++ {
		resp, err := r.h.Call(cur.Addr, &wire.Message{Type: wire.TFindNode, Target: r.self.ID})
		if err != nil {
			if !contacted {
				return fmt.Errorf("kadring: join via %s: %w", bootstrap, err)
			}
			// A hearsay candidate was dead; walk on.
			next, ok := pop()
			if !ok {
				return nil
			}
			cur = next
			continue
		}
		contacted = true
		if dup, ok := r.duplicateOf(resp); ok {
			return fmt.Errorf("kadring: join: id %d already taken by %s", r.self.ID, dup.Addr)
		}
		r.learn(resp.From) // it answered: direct evidence
		if resp.Done && resp.Found.ID != resp.From.ID {
			push(resp.Found)
			r.enqueue(resp.Found)
		}
		for _, c := range resp.Closest {
			push(c)
			r.enqueue(c)
		}
		next, ok := pop()
		if !ok {
			return nil
		}
		cur = next
	}
	// The hop budget bounds the walk, not the join: whatever was probed
	// is in the buckets, and the adoption queue finishes the rest.
	return nil
}

// duplicateOf scans one join answer for a contact claiming the joiner's
// id at a foreign address. HandleRequest builds its answer before
// learning the requester, so the joiner's own contact can never echo
// back — any match is a genuine duplicate.
func (r *Ring) duplicateOf(resp *wire.Message) (wire.Contact, bool) {
	isDup := func(c wire.Contact) bool {
		return c.ID == r.self.ID && c.Addr != "" && c.Addr != r.self.Addr
	}
	if isDup(resp.From) {
		return resp.From, true
	}
	if resp.Done && isDup(resp.Found) {
		return resp.Found, true
	}
	for _, c := range resp.Closest {
		if isDup(c) {
			return c, true
		}
	}
	return wire.Contact{}, false
}

// enqueue queues a hearsay contact for adoption: it enters a bucket
// only after a Stabilize round checks it alive. The address still goes
// to the runtime's contact cache immediately — an address hint costs
// nothing and aux aliasing resolves against that cache.
func (r *Ring) enqueue(c wire.Contact) {
	if c.IsZero() || c.ID == r.self.ID || c.Addr == "" {
		return
	}
	r.h.Note(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.knownLocked(c.ID) {
		return
	}
	for _, p := range r.pending {
		if p.ID == c.ID {
			return
		}
	}
	if len(r.pending) == pendingCap {
		copy(r.pending, r.pending[1:])
		r.pending = r.pending[:pendingCap-1]
	}
	r.pending = append(r.pending, c)
}

// knownLocked reports whether x sits in its bucket or that bucket's
// replacement cache.
func (r *Ring) knownLocked(x id.ID) bool {
	i := r.bucketIndex(x)
	for _, c := range r.buckets[i] {
		if c.ID == x {
			return true
		}
	}
	for _, c := range r.repl[i] {
		if c.ID == x {
			return true
		}
	}
	return false
}

// NextHop answers one iterative lookup step for target. An exact bucket
// hit resolves outright (the target id is a known live node); otherwise
// the XOR-closest contact among buckets and aux redirects, and when
// nothing is strictly closer than self the node claims the key. Aux
// entries redirect but never resolve: their ids may be key positions
// aliased to an owner's address, not nodes.
func (r *Ring) NextHop(target id.ID) (wire.Contact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if target == r.self.ID {
		return r.self, true
	}
	var best wire.Contact
	found := false
	exact := false
	r.eachContact(func(c wire.Contact) {
		if c.ID == target {
			best, found, exact = c, true, true
			return
		}
		if !exact && (!found || r.xorDist(c.ID, target) < r.xorDist(best.ID, target)) {
			best, found = c, true
		}
	})
	if exact {
		return best, true
	}
	selfDist := r.xorDist(r.self.ID, target)
	if !found || r.xorDist(best.ID, target) > selfDist {
		// Nothing strictly closer than self: claim the key.
		return r.self, true
	}
	for _, a := range r.Aux() {
		if r.xorDist(a.ID, target) < r.xorDist(best.ID, target) {
			best = a
		}
	}
	return best, false
}

// LookupRequest implements ring.Routing: Kademlia lookups ride
// TFindNode.
func (r *Ring) LookupRequest(target id.ID) *wire.Message {
	return &wire.Message{Type: wire.TFindNode, Target: target}
}

// ParseLookupResponse implements ring.Routing: the answering peer is
// direct evidence and goes straight to its bucket, the closest-list
// contacts are hearsay and queue for adoption, and the driver receives
// the closest list as candidates to re-rank by XOR distance. No I/O
// happens here.
func (r *Ring) ParseLookupResponse(target id.ID, resp *wire.Message) (wire.Contact, bool, []wire.Contact) {
	r.learn(resp.From)
	for _, c := range resp.Closest {
		r.enqueue(c)
	}
	if resp.Done {
		if resp.Found.ID == resp.From.ID {
			r.learn(resp.Found)
		} else {
			r.enqueue(resp.Found)
		}
		return resp.Found, true, nil
	}
	return wire.Contact{}, false, resp.Closest
}

// Distance implements ring.Routing: the XOR metric.
func (r *Ring) Distance(target, candidate id.ID) uint64 {
	return r.xorDist(candidate, target)
}

// Candidates returns up to max next-hop candidates for target, best
// first: the NextHop pick, then the remaining bucket and aux contacts
// by ascending XOR distance.
func (r *Ring) Candidates(target id.ID, max int) []wire.Contact {
	hop, done := r.NextHop(target)
	if done || max <= 1 {
		return []wire.Contact{hop}
	}
	var top ring.TopK
	top.Init(hop, r.self.ID, max)
	r.mu.RLock()
	defer r.mu.RUnlock()
	visit := func(c wire.Contact) { top.Add(c, 0, r.xorDist(c.ID, target)) }
	r.eachContact(visit)
	for _, a := range r.Aux() {
		visit(a)
	}
	return top.List()
}

// Owns reports whether this node is XOR-closest to key among everything
// in its buckets. No tie-break is needed: distinct ids are never
// equidistant under XOR. Aux entries do not vote — their ids may be key
// positions.
func (r *Ring) Owns(key id.ID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownsLocked(key)
}

func (r *Ring) ownsLocked(key id.ID) bool {
	selfDist := r.xorDist(r.self.ID, key)
	owns := true
	r.eachContact(func(c wire.Contact) {
		if r.xorDist(c.ID, key) < selfDist {
			owns = false
		}
	})
	return owns
}

// Responsible implements ring.Routing: the XOR-closeness predicate over
// a snapshot of the current buckets. Always decidable — a node with
// empty buckets is alone and owns everything.
func (r *Ring) Responsible() (func(id.ID) bool, bool) {
	r.mu.RLock()
	others := make([]id.ID, 0, 8)
	r.eachContact(func(c wire.Contact) { others = append(others, c.ID) })
	r.mu.RUnlock()
	self := r.self.ID
	return func(k id.ID) bool {
		d := uint64(self) ^ uint64(k)
		for _, w := range others {
			if uint64(w)^uint64(k) < d {
				return false
			}
		}
		return true
	}, true
}

// HandleRequest answers TFindNode on the read loop: local state, one
// reply, no outbound I/O. The answer is built before the requester is
// learned, so a joiner probing for its own id can never be echoed its
// own fresh contact (which would be indistinguishable from a duplicate
// id). Only bucket contacts are disclosed — never aux entries, whose
// ids may be key positions rather than nodes.
func (r *Ring) HandleRequest(m *wire.Message, resp *wire.Message) bool {
	if m.Type != wire.TFindNode {
		return false
	}
	resp.Type = wire.TFindNodeResp
	r.mu.RLock()
	if m.Target == r.self.ID {
		resp.Done, resp.Found = true, r.self
	} else {
		exact := wire.Contact{}
		r.eachContact(func(c wire.Contact) {
			if c.ID == m.Target {
				exact = c
			}
		})
		switch {
		case !exact.IsZero():
			resp.Done, resp.Found = true, exact
		case r.ownsLocked(m.Target):
			resp.Done, resp.Found = true, r.self
		}
	}
	resp.Closest = r.closestLocked(m.Target, m.From.ID)
	r.mu.RUnlock()
	r.learn(m.From)
	return true
}

// closestLocked returns up to wire.MaxClosest bucket contacts nearest
// to target (excluding the requester), re-sorted into the codec's
// canonical strictly-ascending id order. It runs on the read loop for
// every FindNode and FindValue miss, so it selects in one bounded pass
// (the nearest contact heads a ring.TopK) instead of sorting the table.
func (r *Ring) closestLocked(target id.ID, requester id.ID) []wire.Contact {
	var head wire.Contact
	r.eachContact(func(c wire.Contact) {
		if c.ID != requester && c.Addr != "" &&
			(head.Addr == "" || r.xorDist(c.ID, target) < r.xorDist(head.ID, target)) {
			head = c
		}
	})
	if head.Addr == "" {
		return nil
	}
	var top ring.TopK
	top.Init(head, requester, wire.MaxClosest)
	r.eachContact(func(c wire.Contact) {
		if c.Addr != "" {
			top.Add(c, 0, r.xorDist(c.ID, target))
		}
	})
	out := top.List()
	slices.SortFunc(out, func(a, b wire.Contact) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Stabilize runs one maintenance round: bounded check-before-evict
// passes over buckets with queued replacement candidates, a bounded
// drain of the hearsay adoption queue (learn what is alive), then a
// neighborhood refresh — a FIND_NODE for self at the nearest known
// contact, keeping the ownership frontier sharp (the data plane's
// authority predicate depends on knowing every close neighbor).
func (r *Ring) Stabilize() {
	for i := 0; i < evictChecksPerRound; i++ {
		idx, lru, ok := r.nextEvictCheck()
		if !ok {
			break
		}
		if r.checkLRU(idx, lru) {
			// Kademlia keeps the proven entry and discards the oldest
			// challenger.
			r.mu.Lock()
			if len(r.repl[idx]) > 0 {
				r.repl[idx] = append(r.repl[idx][:0], r.repl[idx][1:]...)
			}
			r.mu.Unlock()
		}
	}
	for i := 0; i < adoptsPerRound; i++ {
		c, ok := r.nextPending()
		if !ok {
			break
		}
		if r.h.Alive(c.Addr) {
			r.learn(c)
		}
	}
	if near, ok := r.nearestContact(); ok {
		resp, err := r.h.Call(near.Addr, &wire.Message{Type: wire.TFindNode, Target: r.self.ID})
		if err != nil {
			return
		}
		r.learn(resp.From)
		for _, c := range resp.Closest {
			r.enqueue(c)
		}
	}
}

// nextPending pops the oldest adoption candidate that is not already in
// a bucket or replacement cache.
func (r *Ring) nextPending() (wire.Contact, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.pending) > 0 {
		c := r.pending[0]
		copy(r.pending, r.pending[1:])
		r.pending = r.pending[:len(r.pending)-1]
		if !r.knownLocked(c.ID) {
			return c, true
		}
	}
	return wire.Contact{}, false
}

// nextEvictCheck scans round-robin for a bucket with queued replacement
// candidates and returns its least-recently-seen entry.
func (r *Ring) nextEvictCheck() (uint, wire.Contact, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint(len(r.buckets))
	for scanned := uint(0); scanned < n; scanned++ {
		i := r.nextEvict
		r.nextEvict = (r.nextEvict + 1) % n
		if len(r.repl[i]) == 0 {
			continue
		}
		if len(r.buckets[i]) >= r.bucketSize {
			return i, r.buckets[i][0], true
		}
		// The bucket gained room since the candidate queued (a DropPeer
		// or a shrink); promote without a check.
		r.promoteLocked(i)
	}
	return 0, wire.Contact{}, false
}

// promoteLocked moves replacement candidates into bucket i while it has
// room, newest candidate first. The caller holds mu.
func (r *Ring) promoteLocked(i uint) {
	for len(r.buckets[i]) < r.bucketSize && len(r.repl[i]) > 0 {
		last := len(r.repl[i]) - 1
		r.buckets[i] = append(r.buckets[i], r.repl[i][last])
		r.repl[i] = r.repl[i][:last]
	}
}

// checkLRU is ping-before-evict for bucket i's least-recently-seen
// entry: a dead one has left when Alive returns (the runtime's DropPeer
// refills the slot), a live one moves to most-recently-seen. It reports
// whether lru was alive.
func (r *Ring) checkLRU(i uint, lru wire.Contact) bool {
	if !r.h.Alive(lru.Addr) {
		return false
	}
	r.mu.Lock()
	r.touchLocked(lru)
	r.mu.Unlock()
	return true
}

// nearestContact returns the XOR-nearest known contact.
func (r *Ring) nearestContact() (wire.Contact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best wire.Contact
	found := false
	r.eachContact(func(c wire.Contact) {
		if !found || r.xorDist(c.ID, r.self.ID) < r.xorDist(best.ID, r.self.ID) {
			best, found = c, true
		}
	})
	return best, found
}

// RepairTable maintains one bucket per call, round-robin: a populated
// bucket has its least-recently-seen entry checked (a dead one vacates
// and the replacement cache refills), and an under-full one — empty or
// merely short of bucketSize — is refreshed by walking a FIND_NODE for
// a random id in its subtree, self with bit i flipped and the lower
// bits randomized, the classic Kademlia bucket refresh. Refreshing on
// any shortfall (not only emptiness) is what makes convergence
// self-healing: a bucket holding most but not all of a small region
// gets no new contacts from workload traffic once lookups stop, and
// only a walk through the known region members can surface the rest.
// The walk (refreshWalk) costs one probe when the region is empty or
// the bucket already holds all of it.
func (r *Ring) RepairTable() {
	r.mu.Lock()
	i := r.nextBucket
	r.nextBucket = (r.nextBucket + 1) % r.space.Bits()
	var lru wire.Contact
	hasLRU := len(r.buckets[i]) > 0
	if hasLRU {
		lru = r.buckets[i][0]
	}
	underfull := len(r.buckets[i]) < r.bucketSize
	target := r.refreshTargetLocked(i)
	r.mu.Unlock()
	if hasLRU {
		r.checkLRU(i, lru)
	}
	if underfull {
		r.refreshWalk(target)
	}
}

// refreshProbes bounds one bucket refresh walk: how many FIND_NODE
// probes a single RepairTable call may spend rediscovering a subtree.
const refreshProbes = 4

// refreshWalk drives a bounded FIND_NODE walk for target through the
// XOR-nearest known contacts, learning every responder directly. It
// deliberately bypasses the runtime's lookup driver: that driver stops
// as soon as the local table says self is closest, and an empty bucket
// makes self look closest to its own subtree precisely because it
// knows nothing there — only asking the network can mend that, which
// is why Kademlia specifies bucket refresh as an iterative lookup
// rather than a local resolve. Hearsay stays gated: answers' closest
// lists only enter the walk frontier, and a frontier contact reaches a
// bucket only through its own direct reply.
//
// The walk keeps three rules, for the region of target — bucket i's
// subtree, i = bucketIndex(target):
//  1. Every answer feeds the frontier, a Done one too. The owner of a
//     target in the region, answering for itself, still lists the
//     contacts it knows nearest the target, and those are the region's
//     members; a proxy Found (an exact hit) is probed directly next.
//  2. A Done answer that names an owner outside the region, or self,
//     ends the walk: the region is empty. Every member of the region
//     shares i+1 leading bits with target and every non-member fewer,
//     so any member is XOR-closer to target than any non-member, and
//     the owner of a target in a non-empty region is one of its
//     members. (The answer is only as fresh as the answerer's table; a
//     region it has not learned yet is asked again next sweep.)
//  3. The walk ends once the bucket is full, or once no frontier
//     contact in the region is still unknown: probing on could only
//     name again what the bucket already holds.
func (r *Ring) refreshWalk(target id.ID) {
	region := r.bucketIndex(target)
	seen := map[id.ID]bool{r.self.ID: true}
	var frontier []wire.Contact
	push := func(c wire.Contact) {
		if c.IsZero() || c.Addr == "" || seen[c.ID] {
			return
		}
		seen[c.ID] = true
		frontier = append(frontier, c)
	}
	r.mu.RLock()
	r.eachContact(push)
	r.mu.RUnlock()
	for probes := 0; probes < refreshProbes && len(frontier) > 0; probes++ {
		best := 0
		for i := range frontier {
			if r.xorDist(frontier[i].ID, target) < r.xorDist(frontier[best].ID, target) {
				best = i
			}
		}
		c := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		resp, err := r.h.Call(c.Addr, &wire.Message{Type: wire.TFindNode, Target: target})
		if err != nil {
			continue
		}
		r.learn(resp.From)
		if resp.Done && !resp.Found.IsZero() {
			if resp.Found.ID == r.self.ID || r.bucketIndex(resp.Found.ID) != region {
				return // rule 2: the region is empty
			}
			push(resp.Found) // rule 1
		}
		for _, cc := range resp.Closest {
			push(cc)
		}
		if r.settled(region, frontier) {
			return // rule 3
		}
	}
}

// settled reports whether a refresh walk for bucket i can learn nothing
// more: the bucket is full, or every frontier contact in its region is
// already known.
func (r *Ring) settled(i uint, frontier []wire.Contact) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.buckets[i]) >= r.bucketSize {
		return true
	}
	for _, c := range frontier {
		if r.bucketIndex(c.ID) == i && !r.knownLocked(c.ID) {
			return false
		}
	}
	return true
}

// refreshTargetLocked returns a uniformly random id in bucket i's
// subtree: the ids sharing exactly i leading bits with self.
func (r *Ring) refreshTargetLocked(i uint) id.ID {
	t := r.space.SetBit(r.self.ID, i, 1-r.space.Bit(r.self.ID, i))
	for j := i + 1; j < r.space.Bits(); j++ {
		t = r.space.SetBit(t, j, uint(r.rng.Intn(2)))
	}
	return t
}

// touchLocked moves c to the most-recently-seen end of its bucket,
// refreshing the stored address.
func (r *Ring) touchLocked(c wire.Contact) {
	i := r.bucketIndex(c.ID)
	b := r.buckets[i]
	for j, e := range b {
		if e.ID == c.ID {
			copy(b[j:], b[j+1:])
			b[len(b)-1] = c
			return
		}
	}
}

// Heal folds a live contact rediscovered by the runtime's heal probe
// back into the buckets — learn places it wherever there is room, which
// is all partition repair needs in Kademlia.
func (r *Ring) Heal(live wire.Contact) {
	r.learn(live)
}

// DropPeer retires an unreachable peer from its bucket, the replacement
// caches, and the auxiliary set, then refills the vacated slot from the
// bucket's replacement cache.
func (r *Ring) DropPeer(x id.ID) {
	r.RemoveAux(x)
	if x == r.self.ID {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.bucketIndex(x)
	gone := func(c wire.Contact) bool { return c.ID == x }
	r.buckets[i] = slices.DeleteFunc(r.buckets[i], gone)
	r.repl[i] = slices.DeleteFunc(r.repl[i], gone)
	r.pending = slices.DeleteFunc(r.pending, gone)
	r.promoteLocked(i)
}

// Successors returns the XOR-nearest neighbors, nearest first — the
// contacts replicas of owned items go to. Kademlia replicates to the
// nodes closest to the key; for keys this node owns, its own closest
// neighbors are exactly that set.
func (r *Ring) Successors() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var all []wire.Contact
	r.eachContact(func(c wire.Contact) { all = append(all, c) })
	sort.Slice(all, func(i, j int) bool {
		return r.xorDist(all[i].ID, r.self.ID) < r.xorDist(all[j].ID, r.self.ID)
	})
	if len(all) > r.neighbors {
		all = all[:r.neighbors]
	}
	return all
}

// Predecessor returns the XOR-nearest contact. Kademlia has no
// predecessor direction; the nearest neighbor is the contract's closest
// analogue and satisfies "the nearest counter-clockwise neighbor is
// live" style checks no better or worse than any other choice.
func (r *Ring) Predecessor() (wire.Contact, bool) {
	return r.nearestContact()
}

// TableList returns every bucket contact, deepest buckets last.
func (r *Ring) TableList() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []wire.Contact
	r.eachContact(func(c wire.Contact) { out = append(out, c) })
	return out
}

// CoreIDs returns every bucket contact's id — the core neighbor set N_s
// of eq. 1, fed to the selection maintainer.
func (r *Ring) CoreIDs() []id.ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []id.ID
	r.eachContact(func(c wire.Contact) { out = append(out, c.ID) })
	return out
}

// Buckets returns a copy of the k-bucket table keyed by bucket index,
// least-recently-seen first — introspection for tests and tooling (the
// cluster harness's convergence oracle checks expected-bucket coverage
// against it).
func (r *Ring) Buckets() map[uint][]wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[uint][]wire.Contact)
	for i, b := range r.buckets {
		if len(b) > 0 {
			out[uint(i)] = append([]wire.Contact(nil), b...)
		}
	}
	return out
}

// BucketSize reports the configured per-bucket capacity k.
func (r *Ring) BucketSize() int { return r.bucketSize }

// SelectAux implements ring.Routing. Kademlia's XOR bucket-ladder
// distance is the Pastry prefix distance under the d = b − LCP identity
// (see core/kademlia_maint.go), so the Pastry selectors apply verbatim:
// core.SelectPastryGreedy, or core.SelectPastryQoS (bounds in
// bucket-index distance, which equals bit-digit prefix distance) when
// bounds are given.
func (r *Ring) SelectAux(coreIDs []id.ID, peers []core.Peer, k int, bounds map[id.ID]uint) ([]id.ID, error) {
	var res core.Result
	var err error
	if bounds == nil {
		res, err = core.SelectPastryGreedy(r.space, coreIDs, peers, k)
	} else {
		res, err = core.SelectPastryQoS(r.space, coreIDs, peers, k, bounds)
	}
	return res.Aux, err
}

// eachContact visits every bucket contact under the caller's lock. Aux
// entries are excluded: their ids may be key positions rather than
// nodes.
func (r *Ring) eachContact(fn func(wire.Contact)) {
	for _, b := range r.buckets {
		for _, c := range b {
			fn(c)
		}
	}
}

// learn folds a contact into its bucket: a known id is refreshed and
// moved to most-recently-seen, a new one fills a free slot, and a full
// bucket queues it as a replacement candidate — eviction of the
// least-recently-seen entry happens only after a maintenance ping
// proves it dead (never inline: learn runs on the read loop via
// HandleRequest and ParseLookupResponse).
func (r *Ring) learn(c wire.Contact) {
	if c.IsZero() || c.ID == r.self.ID || c.Addr == "" {
		return
	}
	r.h.Note(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.bucketIndex(c.ID)
	b := r.buckets[i]
	for j, e := range b {
		if e.ID == c.ID {
			copy(b[j:], b[j+1:])
			b[len(b)-1] = c
			return
		}
	}
	if len(b) < r.bucketSize {
		r.buckets[i] = append(b, c)
		return
	}
	// Full bucket: queue as a replacement candidate, newest last.
	q := r.repl[i]
	for j, e := range q {
		if e.ID == c.ID {
			copy(q[j:], q[j+1:])
			q[len(q)-1] = c
			return
		}
	}
	if len(q) == replacementCap {
		copy(q, q[1:])
		q = q[:len(q)-1]
	}
	r.repl[i] = append(q, c)
}
