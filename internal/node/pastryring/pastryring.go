// Package pastryring is the Pastry geometry of the live node runtime:
// a leaf set (the LeafHalf numerically nearest nodes on each side) plus
// a binary prefix routing table (one row per common-prefix length),
// behind the protocol-agnostic ring.Routing contract. Routing follows
// the standard Pastry rules — leaf-arc delivery, deepest prefix
// extension, equal-prefix numeric progress — with the paper's auxiliary
// neighbors spliced into the prefix rules, and ownership is numeric
// closeness with ties toward the predecessor side, the same convention
// internal/pastry's oracle uses.
//
// Wire footprint: the geometry owns TRowExchange/TRowExchangeResp (a
// peer's populated prefix-table rows; the join walk collects one per
// hop and stabilize gossips one per round) and TLeafProbe/TLeafProbeResp
// (a peer's leaf set; stabilize probes every leaf with it, and a joiner
// announces itself by firing one-way probes at everyone it learned of).
// Lookups ride the runtime's protocol-neutral TFindSucc.
//
// Aux selection uses the prefix distance metric (SelectAux: the paper's
// O(nkb) greedy, or the Section IV-D DP under delay bounds).
package pastryring

import (
	"fmt"
	"math/rand"
	"sync"

	"peercache/internal/core"
	"peercache/internal/id"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// Ring is the Pastry routing state plus the maintenance protocol over
// it. Methods take the lock briefly and perform I/O only through the
// Host, so the runtime may call them from the read loop (NextHop, Owns,
// HandleRequest) and its tickers concurrently.
type Ring struct {
	h        ring.Host
	space    id.Space
	self     wire.Contact
	maxHops  int
	leafHalf int

	mu sync.RWMutex
	// leafCW/leafCCW are the clockwise and counter-clockwise leaf-set
	// sides, each sorted nearest-first, at most leafHalf entries.
	leafCW, leafCCW []wire.Contact
	// rows[l] holds a node whose id shares exactly l leading bits with
	// self (binary digits: one slot per row, as in internal/pastry with
	// DigitBits 1).
	rows   []wire.Contact
	hasRow []bool

	ring.AuxSet // auxiliary neighbors, the paper's A_s; read without mu

	nextRow uint       // round-robin cursor for RepairTable
	rng     *rand.Rand // stabilize's gossip-partner pick; guarded by mu
}

// New builds the Pastry geometry. Pass it as node.Config.NewRing to run
// a Pastry node.
func New(h ring.Host, o ring.Options) (ring.Routing, error) {
	space, self := h.Space(), h.Self()
	r := &Ring{
		h:        h,
		space:    space,
		self:     self,
		maxHops:  o.MaxLookupHops,
		leafHalf: o.NeighborListLen,
		rows:     make([]wire.Contact, space.Bits()),
		hasRow:   make([]bool, space.Bits()),
		rng:      rand.New(rand.NewSource(int64(self.ID) + 1)),
	}
	return r, nil
}

// Protocol implements ring.Routing.
func (r *Ring) Protocol() string { return "pastry" }

// Join enters the overlay by walking the runtime's iterative TFindSucc
// toward the node's own id — Pastry's JOIN route — while
// collecting each path node's prefix-table rows with a TRowExchange and
// the final (numerically closest) node's leaf set with a TLeafProbe.
// The joiner then announces itself with one-way leaf probes to everyone
// it learned of, so their tables fold it in before the first stabilize
// round.
func (r *Ring) Join(bootstrap string) error {
	cur := wire.Contact{Addr: bootstrap}
	for hops := 0; hops <= r.maxHops; hops++ {
		// Route first, collect after: answering a TRowExchange teaches
		// the callee this node's contact, and a path node that already
		// knows the joiner would resolve the joiner's id to the joiner
		// itself — indistinguishable from a genuine duplicate id.
		resp, err := r.h.Call(cur.Addr, &wire.Message{Type: wire.TFindSucc, Target: r.self.ID})
		if err != nil {
			return fmt.Errorf("pastryring: join via %s: %w", bootstrap, err)
		}
		r.h.Note(resp.From)
		if resp.Done {
			if resp.Found.ID == r.self.ID {
				if resp.Found.Addr != "" && resp.Found.Addr != r.self.Addr {
					return fmt.Errorf("pastryring: join: id %d already taken by %s", r.self.ID, resp.Found.Addr)
				}
				// The answer is this node's own contact: despite the
				// route-first ordering, the overlay learned the joiner
				// mid-walk (every request envelope carries From, and
				// gossip spreads it) and now routes its id back to it.
				// That is a join already half-done, not a collision —
				// seed from the answering node, which sits in the
				// joiner's numeric vicinity by virtue of having
				// resolved its id.
				if !resp.From.IsZero() && resp.From.ID != r.self.ID {
					r.learn(resp.From)
					r.collect(resp.From.Addr)
				}
				r.announce()
				return nil
			}
			// The numerically closest node's leaf set seeds ours, and
			// its rows (plus the final path node's, when distinct) seed
			// the prefix table.
			r.learn(resp.Found)
			r.collect(resp.Found.Addr)
			if !resp.From.IsZero() && resp.From.ID != resp.Found.ID {
				r.learn(resp.From)
				r.collect(resp.From.Addr)
			}
			r.announce()
			return nil
		}
		// The path node contributes its rows (and its own contact).
		r.collect(cur.Addr)
		if resp.Next.IsZero() || resp.Next.Addr == cur.Addr {
			return fmt.Errorf("pastryring: join via %s: no progress at %s", bootstrap, cur.Addr)
		}
		r.h.Note(resp.Next)
		cur = resp.Next
	}
	return fmt.Errorf("pastryring: join via %s: exceeded %d hops", bootstrap, r.maxHops)
}

// collect folds one peer's rows and leaves into the joiner's state.
func (r *Ring) collect(addr string) {
	if rx, err := r.h.Call(addr, &wire.Message{Type: wire.TRowExchange}); err == nil {
		r.learn(rx.From)
		for _, row := range rx.Rows {
			r.learn(row.Entry)
		}
	}
	if lp, err := r.h.Call(addr, &wire.Message{Type: wire.TLeafProbe}); err == nil {
		r.learn(lp.From)
		for _, c := range lp.Leaves {
			r.learn(c)
		}
	}
}

// announce fires a one-way TLeafProbe at every contact in the routing
// state; receivers learn the joiner from the request's From and the
// joiner's transport drops their replies as uncorrelated.
func (r *Ring) announce() {
	for _, c := range r.peerList() {
		r.h.Send(c.Addr, &wire.Message{Type: wire.TLeafProbe, From: r.self})
	}
}

// NextHop answers one iterative lookup step for target with the
// standard Pastry decision. Rule 1 (leaf-arc delivery) resolves the
// lookup outright: within the arc the leaves are authoritative, so the
// numerically closest known node — possibly self — is the answer. Rules
// 2 and 3 redirect the caller toward a longer prefix or a numerically
// closer equal-prefix node; the auxiliary set participates in both, so
// a position-aliased aux pointer at a hot key wins rule 2 with a full
// prefix match and lands the lookup on the owner in one hop.
func (r *Ring) NextHop(target id.ID) (wire.Contact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if target == r.self.ID {
		return r.self, true
	}
	// Rule 1: leaf-set delivery. The leaf arc spans from the farthest
	// counter-clockwise leaf to the farthest clockwise leaf — or the
	// whole ring while either side is underfull, the standard Pastry
	// reading of a leaf set smaller than its bound: the node has seen
	// fewer than leafHalf peers per side, so the leaves are everyone it
	// knows nearby and numeric closeness decides outright. Only real
	// table entries vote for the answer — aux ids may be key positions
	// aliased to an owner's address, never a final Found.
	if len(r.leafCW) > 0 || len(r.leafCCW) > 0 {
		inArc := len(r.leafCW) < r.leafHalf || len(r.leafCCW) < r.leafHalf
		if !inArc {
			ccw := r.leafCCW[len(r.leafCCW)-1].ID
			cw := r.leafCW[len(r.leafCW)-1].ID
			// Sides that overlap — the clockwise one reaching past the
			// farthest counter-clockwise leaf, as on a ring of at most
			// 2·leafHalf+1 nodes — cover the whole ring.
			inArc = r.space.Gap(r.self.ID, cw) >= r.space.Gap(r.self.ID, ccw) ||
				r.space.Gap(ccw, target) <= r.space.Gap(ccw, cw)
		}
		if inArc {
			best := r.self
			r.eachEntry(func(c wire.Contact) {
				if closer(r.space, c.ID, best.ID, target) {
					best = c
				}
			})
			return best, true
		}
	}
	// Rule 2: deepest strictly longer prefix, aux included.
	l := r.space.CommonPrefixLen(r.self.ID, target)
	bestL := l
	var best wire.Contact
	found := false
	candidate := func(c wire.Contact) {
		if wl := r.space.CommonPrefixLen(c.ID, target); wl > bestL {
			best, bestL, found = c, wl, true
		}
	}
	aux := r.Aux()
	r.eachEntry(candidate)
	for _, a := range aux {
		candidate(a)
	}
	if found {
		return best, false
	}
	// Rule 3: equal prefix, numerically closer, aux included.
	best = r.self
	progress := func(c wire.Contact) {
		if r.space.CommonPrefixLen(c.ID, target) != l {
			return
		}
		if closer(r.space, c.ID, best.ID, target) {
			best, found = c, true
		}
	}
	r.eachEntry(progress)
	for _, a := range aux {
		progress(a)
	}
	if !found {
		// Nothing in the table improves on self: claim the key.
		return r.self, true
	}
	return best, false
}

// LookupRequest implements ring.Routing: Pastry lookups ride the
// protocol-neutral TFindSucc.
func (r *Ring) LookupRequest(target id.ID) *wire.Message {
	return &wire.Message{Type: wire.TFindSucc, Target: target}
}

// ParseLookupResponse implements ring.Routing: a find-succ response is
// either the final answer or a single redirect candidate.
func (r *Ring) ParseLookupResponse(target id.ID, resp *wire.Message) (wire.Contact, bool, []wire.Contact) {
	if resp.Done {
		return resp.Found, true, nil
	}
	return wire.Contact{}, false, []wire.Contact{resp.Next}
}

// Distance implements ring.Routing: circular distance to the target —
// rule 3's numeric-progress measure — ranks concurrent probe
// candidates.
func (r *Ring) Distance(target, candidate id.ID) uint64 {
	return circDist(r.space, candidate, target)
}

// Candidates returns next-hop candidates for target, best first: the
// NextHop pick, then the remaining rule-2 contacts by descending prefix
// depth (first-encounter order within a depth, matching NextHop's
// tie-break), then rule-3 equal-prefix contacts by numeric closeness.
// Aux entries participate exactly as in NextHop.
func (r *Ring) Candidates(target id.ID, max int) []wire.Contact {
	hop, done := r.NextHop(target)
	if done || max <= 1 {
		return []wire.Contact{hop}
	}
	var top ring.TopK
	top.Init(hop, r.self.ID, max)
	r.mu.RLock()
	defer r.mu.RUnlock()
	l := r.space.CommonPrefixLen(r.self.ID, target)
	visit := func(c wire.Contact) {
		wl := r.space.CommonPrefixLen(c.ID, target)
		switch {
		case wl > l:
			top.Add(c, 0, uint64(r.space.Bits()-wl))
		case wl == l && closer(r.space, c.ID, r.self.ID, target):
			// closer's order as one number: circular distance, then the
			// predecessor side of the key before the successor side.
			side := uint64(0)
			if r.space.Gap(c.ID, target) > r.space.Gap(target, c.ID) {
				side = 1
			}
			top.Add(c, 1, circDist(r.space, c.ID, target)<<1|side)
		}
	}
	r.eachEntry(visit)
	for _, a := range r.Aux() {
		visit(a)
	}
	return top.List()
}

// Owns reports whether this node is numerically closest to key among
// everything in its leaf set and prefix table — Pastry's ownership
// rule, with equidistant ties broken toward the predecessor side.
func (r *Ring) Owns(key id.ID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownsLocked(key)
}

func (r *Ring) ownsLocked(key id.ID) bool {
	owns := true
	r.eachEntry(func(c wire.Contact) {
		if closer(r.space, c.ID, r.self.ID, key) {
			owns = false
		}
	})
	return owns
}

// Responsible implements ring.Routing: the numeric-closeness predicate
// over a snapshot of the current table. Always decidable — a node with
// an empty table is alone and owns everything.
func (r *Ring) Responsible() (func(id.ID) bool, bool) {
	r.mu.RLock()
	others := make([]id.ID, 0, len(r.leafCW)+len(r.leafCCW))
	r.eachEntry(func(c wire.Contact) { others = append(others, c.ID) })
	r.mu.RUnlock()
	self, space := r.self.ID, r.space
	return func(k id.ID) bool {
		for _, w := range others {
			if closer(space, w, self, k) {
				return false
			}
		}
		return true
	}, true
}

// HandleRequest answers the Pastry maintenance RPCs. Read-loop rules:
// local state, Host.Note, one reply — no outbound I/O.
func (r *Ring) HandleRequest(m *wire.Message, resp *wire.Message) bool {
	switch m.Type {
	case wire.TRowExchange:
		resp.Type = wire.TRowExchangeResp
		resp.Rows = r.rowList()
	case wire.TLeafProbe:
		resp.Type = wire.TLeafProbeResp
		resp.Leaves = r.leafList()
	default:
		return false
	}
	r.learn(m.From)
	return true
}

// Stabilize runs one leaf-set maintenance round: probe every leaf with
// TLeafProbe (dead leaves drop out of all state; survivors' leaf sets
// are merged), then trade prefix-table rows with one random peer.
// Gossiped candidates may themselves be stale, so each unknown one is
// pinged before adoption — otherwise dead nodes keep circulating
// between peers that drop and re-learn them.
func (r *Ring) Stabilize() {
	for _, lf := range r.leafList() {
		resp, err := r.h.Call(lf.Addr, &wire.Message{Type: wire.TLeafProbe})
		if err != nil {
			r.DropPeer(lf.ID)
			continue
		}
		r.learn(resp.From)
		for _, c := range resp.Leaves {
			r.adopt(c)
		}
	}
	if p, ok := r.randomPeer(); ok {
		resp, err := r.h.Call(p.Addr, &wire.Message{Type: wire.TRowExchange})
		if err != nil {
			r.DropPeer(p.ID)
			return
		}
		r.learn(resp.From)
		for _, row := range resp.Rows {
			r.adopt(row.Entry)
		}
	}
}

// RepairTable maintains one prefix-table row per call, round-robin: a
// populated row is pinged (and cleared if dead); an empty one is
// refilled by resolving an id in the row's subtree — self with bit l
// flipped — and adopting the answer when its common prefix length is
// exactly l.
func (r *Ring) RepairTable() {
	r.mu.Lock()
	l := r.nextRow
	r.nextRow = (r.nextRow + 1) % r.space.Bits()
	has := r.hasRow[l]
	cur := r.rows[l]
	r.mu.Unlock()
	if has {
		if _, err := r.h.Call(cur.Addr, &wire.Message{Type: wire.TPing}); err != nil {
			r.DropPeer(cur.ID)
		}
		return
	}
	target := r.space.SetBit(r.self.ID, l, 1-r.space.Bit(r.self.ID, l))
	c, _, err := r.h.Resolve(target)
	if err != nil || c.ID == r.self.ID || c.Addr == "" {
		return
	}
	if r.space.CommonPrefixLen(r.self.ID, c.ID) == l {
		r.learn(c)
	}
}

// Heal folds a live contact rediscovered by the runtime's heal probe
// back into the table. Numeric-closeness insertion is unconditional in
// Pastry — learn places the contact wherever it improves the state —
// so partition repair needs no special casing beyond this.
func (r *Ring) Heal(live wire.Contact) {
	if live.IsZero() || live.ID == r.self.ID || live.Addr == "" {
		return
	}
	r.learn(live)
}

// DropPeer retires an unreachable peer from the leaf set, the prefix
// table, and the auxiliary set.
func (r *Ring) DropPeer(x id.ID) {
	r.RemoveAux(x)
	r.mu.Lock()
	defer r.mu.Unlock()
	drop := func(side []wire.Contact) []wire.Contact {
		out := side[:0]
		for _, c := range side {
			if c.ID != x {
				out = append(out, c)
			}
		}
		return out
	}
	r.leafCW = drop(r.leafCW)
	r.leafCCW = drop(r.leafCCW)
	for l, ok := range r.hasRow {
		if ok && r.rows[l].ID == x {
			r.hasRow[l] = false
			r.rows[l] = wire.Contact{}
		}
	}
}

// Successors returns the clockwise leaf-set side, nearest first — the
// nodes that replicas of owned items go to.
func (r *Ring) Successors() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]wire.Contact(nil), r.leafCW...)
}

// Predecessor returns the nearest counter-clockwise leaf.
func (r *Ring) Predecessor() (wire.Contact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.leafCCW) == 0 {
		return wire.Contact{}, false
	}
	return r.leafCCW[0], true
}

// TableList returns the populated prefix-table rows, ascending by row.
func (r *Ring) TableList() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []wire.Contact
	for l, ok := range r.hasRow {
		if ok {
			out = append(out, r.rows[l])
		}
	}
	return out
}

// TableSize counts the populated prefix-table rows.
func (r *Ring) TableSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, ok := range r.hasRow {
		if ok {
			n++
		}
	}
	return n
}

// CoreIDs returns the node's core neighbor set — prefix-table rows and
// both leaf-set sides, self excluded — the N_s of eq. 1, fed to the
// selection maintainer.
func (r *Ring) CoreIDs() []id.ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[id.ID]bool)
	var out []id.ID
	r.eachEntry(func(c wire.Contact) {
		if !seen[c.ID] {
			seen[c.ID] = true
			out = append(out, c.ID)
		}
	})
	return out
}

// Leaves returns copies of the two leaf-set sides, nearest first —
// introspection for tests and tooling (the cluster harness's Pastry
// convergence oracle compares them against the ideal ring).
func (r *Ring) Leaves() (cw, ccw []wire.Contact) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]wire.Contact(nil), r.leafCW...), append([]wire.Contact(nil), r.leafCCW...)
}

// Rows returns the populated prefix-table rows keyed by row index.
func (r *Ring) Rows() map[uint]wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[uint]wire.Contact)
	for l, ok := range r.hasRow {
		if ok {
			out[uint(l)] = r.rows[l]
		}
	}
	return out
}

// SelectAux implements ring.Routing under the binary prefix distance
// b − LCP: core.SelectPastryGreedy, or core.SelectPastryQoS (bounds in
// bit digits) when bounds are given.
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

// eachEntry visits every real table entry — both leaf sides, then the
// populated rows — under the caller's lock. Aux entries are excluded:
// their ids may be key positions rather than nodes.
func (r *Ring) eachEntry(fn func(wire.Contact)) {
	for _, c := range r.leafCW {
		fn(c)
	}
	for _, c := range r.leafCCW {
		fn(c)
	}
	for l, ok := range r.hasRow {
		if ok {
			fn(r.rows[l])
		}
	}
}

// learn folds a contact into the routing state: the matching row if it
// is empty (refreshing the address if the same node already holds it),
// and each leaf-set side if it is among the leafHalf nearest. Every
// learned contact is recorded in the runtime's address cache.
func (r *Ring) learn(c wire.Contact) {
	if c.IsZero() || c.ID == r.self.ID || c.Addr == "" {
		return
	}
	r.h.Note(c)
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.space.CommonPrefixLen(r.self.ID, c.ID)
	if int(l) < len(r.rows) {
		if !r.hasRow[l] {
			r.rows[l] = c
			r.hasRow[l] = true
		} else if r.rows[l].ID == c.ID {
			r.rows[l] = c
		}
	}
	r.leafCW = insertLeaf(r.space, r.leafCW, r.self.ID, c, r.leafHalf, true)
	r.leafCCW = insertLeaf(r.space, r.leafCCW, r.self.ID, c, r.leafHalf, false)
}

// adopt pings an unknown gossiped candidate and learns it if it
// answers; known contacts and obvious junk are skipped without I/O.
func (r *Ring) adopt(c wire.Contact) {
	if c.IsZero() || c.ID == r.self.ID || c.Addr == "" || r.knows(c.ID) {
		return
	}
	if _, err := r.h.Call(c.Addr, &wire.Message{Type: wire.TPing}); err != nil {
		return
	}
	r.learn(c)
}

// knows reports whether x already appears in the leaf set or the rows.
func (r *Ring) knows(x id.ID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	found := false
	r.eachEntry(func(c wire.Contact) {
		if c.ID == x {
			found = true
		}
	})
	return found
}

// leafList returns the wire-ready leaf set: clockwise side nearest-first
// then counter-clockwise side, deduplicated, capped at MaxLeaves.
func (r *Ring) leafList() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[id.ID]bool, len(r.leafCW)+len(r.leafCCW))
	out := make([]wire.Contact, 0, len(r.leafCW)+len(r.leafCCW))
	for _, c := range append(append([]wire.Contact(nil), r.leafCW...), r.leafCCW...) {
		if seen[c.ID] || len(out) == wire.MaxLeaves {
			continue
		}
		seen[c.ID] = true
		out = append(out, c)
	}
	return out
}

// rowList returns the wire-ready populated rows, strictly ascending by
// index as the codec requires, capped at MaxRows.
func (r *Ring) rowList() []wire.Row {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []wire.Row
	for l, ok := range r.hasRow {
		if ok && l < wire.MaxRows && len(out) < wire.MaxRows {
			out = append(out, wire.Row{Index: uint8(l), Entry: r.rows[l]})
		}
	}
	return out
}

// peerList returns every distinct contact in the routing state.
func (r *Ring) peerList() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[id.ID]bool)
	var out []wire.Contact
	r.eachEntry(func(c wire.Contact) {
		if !seen[c.ID] {
			seen[c.ID] = true
			out = append(out, c)
		}
	})
	return out
}

// randomPeer picks one uniformly random contact from the routing state.
func (r *Ring) randomPeer() (wire.Contact, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var pick wire.Contact
	i := 0
	r.eachEntry(func(c wire.Contact) {
		if r.rng.Intn(i+1) == 0 {
			pick = c
		}
		i++
	})
	return pick, i > 0
}

// insertLeaf maintains one leaf-set side: sorted nearest-first by
// clockwise (cw) or counter-clockwise gap, capped at half entries. An
// already-present id has its address refreshed in place.
func insertLeaf(space id.Space, side []wire.Contact, self id.ID, c wire.Contact, half int, cw bool) []wire.Contact {
	gap := func(a id.ID) uint64 {
		if cw {
			return space.Gap(self, a)
		}
		return space.Gap(a, self)
	}
	for i, e := range side {
		if e.ID == c.ID {
			side[i] = c
			return side
		}
	}
	g := gap(c.ID)
	i := 0
	for i < len(side) && gap(side[i].ID) < g {
		i++
	}
	if i >= half {
		return side
	}
	side = append(side, wire.Contact{})
	copy(side[i+1:], side[i:])
	side[i] = c
	if len(side) > half {
		side = side[:half]
	}
	return side
}

func circDist(space id.Space, x, key id.ID) uint64 {
	g1, g2 := space.Gap(x, key), space.Gap(key, x)
	if g1 < g2 {
		return g1
	}
	return g2
}

// closer reports whether a is strictly numerically closer to key than
// b, breaking equidistant ties toward the predecessor side — the same
// deterministic ownership convention as internal/pastry's oracle.
func closer(space id.Space, a, b, key id.ID) bool {
	da, db := circDist(space, a, key), circDist(space, b, key)
	if da != db {
		return da < db
	}
	return space.Gap(a, key) < space.Gap(b, key)
}
