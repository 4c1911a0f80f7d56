// Package chordring is the Chord geometry of the live node runtime: the
// successor list, predecessor pointer, and finger table that
// internal/node embedded directly before the ring.Routing split, now
// behind the protocol-agnostic contract. The runtime drives it with
// tickers (Stabilize, RepairTable) and iterative lookups (NextHop), and
// selects auxiliary neighbors under the ring distance metric (SelectAux:
// the paper's Section V-B fast selector, or the V-C DP under delay
// bounds).
package chordring

import (
	"fmt"
	"slices"
	"sync"

	"peercache/internal/core"
	"peercache/internal/id"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// Ring is the Chord routing state plus the maintenance protocol over
// it. Methods take the lock briefly and perform I/O only through the
// Host, so the runtime may call them from the read loop (NextHop, Owns,
// HandleRequest) and its tickers concurrently.
type Ring struct {
	h       ring.Host
	space   id.Space
	self    wire.Contact
	maxHops int

	mu      sync.RWMutex
	succs   []wire.Contact // nearest first; never empty (falls back to self)
	maxSucc int
	pred    wire.Contact
	hasPred bool
	// notifiers holds, by id, the nodes that notified this node or asked
	// it for its predecessor in the current (0) and the previous (1)
	// stabilize round: each takes this node for its successor. Stabilize
	// rotates the generations.
	notifiers [2]map[id.ID]wire.Contact

	fingers   []wire.Contact // fingers[i] covers (self+2^i, self+2^{i+1}]
	hasFinger []bool

	ring.AuxSet // auxiliary neighbors, the paper's A_s; read without mu

	nextFinger  uint // round-robin cursor for RepairTable
	repairBatch int  // fingers refreshed per RepairTable call
}

// New builds the Chord geometry. It is the default ring.Factory of
// node.Config.
func New(h ring.Host, o ring.Options) (ring.Routing, error) {
	space, self := h.Space(), h.Self()
	batch := o.RepairBatch
	if batch < 1 {
		batch = 1
	}
	if batch > int(space.Bits()) {
		batch = int(space.Bits())
	}
	r := &Ring{
		h:           h,
		space:       space,
		self:        self,
		maxHops:     o.MaxLookupHops,
		succs:       []wire.Contact{self},
		maxSucc:     o.NeighborListLen,
		fingers:     make([]wire.Contact, space.Bits()),
		hasFinger:   make([]bool, space.Bits()),
		repairBatch: batch,
	}
	return r, nil
}

// Protocol implements ring.Routing.
func (r *Ring) Protocol() string { return "chord" }

// Join enters the overlay through a peer listening at bootstrap: an
// iterative find-successor for the node's own id yields its successor;
// stabilization then integrates the node into the ring, as in the Chord
// paper's join. The joiner notifies its successor at once, so that a
// node many others join through at the same time knows every one of
// them before the first stabilize round asks it for a closer successor.
func (r *Ring) Join(bootstrap string) error {
	if err := r.join(bootstrap); err != nil {
		return err
	}
	if s := r.successor(); s.ID != r.self.ID {
		r.h.Call(s.Addr, &wire.Message{Type: wire.TNotify}) // best effort: Stabilize notifies again
	}
	return nil
}

func (r *Ring) join(bootstrap string) error {
	cur := bootstrap
	for hops := 0; hops <= r.maxHops; hops++ {
		resp, err := r.h.Call(cur, &wire.Message{Type: wire.TFindSucc, Target: r.self.ID})
		if err != nil {
			return fmt.Errorf("chordring: join via %s: %w", bootstrap, err)
		}
		r.h.Note(resp.From)
		if resp.Done {
			if resp.Found.ID == r.self.ID {
				if resp.Found.Addr != "" && resp.Found.Addr != r.self.Addr {
					return fmt.Errorf("chordring: join: id %d already taken by %s", r.self.ID, resp.Found.Addr)
				}
				// The walk resolved to this node's own contact: the
				// overlay learned the joiner mid-walk (request
				// envelopes carry From, and gossip spreads it) and the
				// last hop routed its id straight back. Not a
				// collision — adopt the answering node as the
				// provisional successor and let stabilization settle
				// the exact position.
				if !resp.From.IsZero() && resp.From.ID != r.self.ID {
					if r.successorVia(resp.From) {
						return nil
					}
					r.adoptSuccessor(resp.From)
					return nil
				}
				if r.successorVia(wire.Contact{Addr: bootstrap}) {
					return nil
				}
				return fmt.Errorf("chordring: join via %s: resolved to self with no usable peer", bootstrap)
			}
			r.adoptSuccessor(resp.Found)
			return nil
		}
		if resp.Next.IsZero() || resp.Next.Addr == cur {
			return fmt.Errorf("chordring: join via %s: no progress at %s", bootstrap, cur)
		}
		if resp.Next.ID == r.self.ID || resp.Next.Addr == r.self.Addr {
			// The walk is being funneled back at the joiner itself: a
			// previous incarnation at (or aliased to) this position left
			// stale aux or finger pointers behind, and following them
			// would make a freshly reborn ring-of-one claim the whole
			// keyspace. Repair sideways instead: take the redirecting
			// peer's successor list and adopt the closest live entry that
			// is not us, falling back to the redirecting peer itself.
			if r.successorVia(resp.From) {
				return nil
			}
			if !resp.From.IsZero() && resp.From.ID != r.self.ID && resp.From.Addr != r.self.Addr {
				r.adoptSuccessor(resp.From)
				return nil
			}
			return fmt.Errorf("chordring: join via %s: redirected to self at %s", bootstrap, cur)
		}
		r.h.Note(resp.Next)
		cur = resp.Next.Addr
	}
	return fmt.Errorf("chordring: join via %s: exceeded %d hops", bootstrap, r.maxHops)
}

// successorVia asks peer for its predecessor/successor-list view and
// adopts the clockwise-closest live entry that is not this node as the
// provisional successor (stabilization settles the exact position, as
// in the resolved-to-self join path). It is the join walk's escape
// hatch when stale position-aliased pointers route the joiner's own id
// back at it; returns false when the peer is unreachable or its view
// contains no usable contact.
func (r *Ring) successorVia(peer wire.Contact) bool {
	if peer.Addr == "" || peer.Addr == r.self.Addr {
		return false
	}
	resp, err := r.h.Call(peer.Addr, &wire.Message{Type: wire.TGetPred})
	if err != nil {
		return false
	}
	r.h.Note(resp.From)
	// resp.From is the responder's authoritative self-contact, so the
	// caller-supplied peer (which may be an address-only bootstrap
	// stub with no id) never needs to be a candidate itself.
	cands := make([]wire.Contact, 0, len(resp.Succs)+1)
	cands = append(cands, resp.Succs...)
	cands = append(cands, resp.From)
	var best wire.Contact
	for _, c := range cands {
		if c.IsZero() || c.Addr == "" || c.ID == r.self.ID || c.Addr == r.self.Addr {
			continue
		}
		if best.IsZero() || r.space.Gap(r.self.ID, c.ID) < r.space.Gap(r.self.ID, best.ID) {
			best = c
		}
	}
	if best.IsZero() {
		return false
	}
	r.adoptSuccessor(best)
	return true
}

// NextHop answers one iterative lookup step for target: either the
// final answer (done) or the closest preceding contact from the node's
// fingers, successor list, and auxiliary neighbors.
func (r *Ring) NextHop(target id.ID) (wire.Contact, bool) {
	if target == r.self.ID || r.Owns(target) {
		return r.self, true
	}
	s := r.successor()
	if s.ID == r.self.ID {
		// Ring of one: every key is ours.
		return r.self, true
	}
	if r.space.BetweenIncl(target, r.self.ID, s.ID) {
		return s, true
	}
	next := r.closestPreceding(target)
	if next.ID == r.self.ID {
		// Defensive: cannot happen while a distinct successor exists,
		// but never redirect a caller to ourselves.
		return s, true
	}
	return next, false
}

// LookupRequest implements ring.Routing: Chord lookups step with
// TFindSucc.
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

// Distance implements ring.Routing: the clockwise gap remaining from
// the candidate to the target, so the α-parallel driver prefers the
// closest preceding contact exactly as closestPreceding does.
func (r *Ring) Distance(target, candidate id.ID) uint64 {
	return r.space.Gap(candidate, target)
}

// Candidates returns next-hop candidates for target, best first: the
// NextHop pick, then the rest of the `(self, target]` window — fingers,
// successor list, and auxiliary neighbors — by descending gap from
// self, i.e. closest to the target first.
func (r *Ring) Candidates(target id.ID, max int) []wire.Contact {
	hop, done := r.NextHop(target)
	if done || max <= 1 {
		return []wire.Contact{hop}
	}
	var top ring.TopK
	top.Init(hop, r.self.ID, max)
	r.mu.RLock()
	defer r.mu.RUnlock()
	gt := r.space.Gap(r.self.ID, target)
	add := func(c wire.Contact) {
		g := r.space.Gap(r.self.ID, c.ID)
		if g == 0 || g > gt {
			return // self or overshoot
		}
		top.Add(c, 0, gt-g)
	}
	for i, ok := range r.hasFinger {
		if ok {
			add(r.fingers[i])
		}
	}
	for _, s := range r.succs {
		add(s)
	}
	for _, a := range r.Aux() {
		add(a)
	}
	return top.List()
}

// Owns reports whether this node is currently responsible for key: its
// predecessor is known and key lies in (pred, self]. An owner claims
// its keys outright in the lookup path — in particular when a
// position-aliased aux pointer lands a lookup directly on the owner,
// whose successor-interval rule alone would route the query all the way
// around the ring.
func (r *Ring) Owns(key id.ID) bool {
	r.mu.RLock()
	p, ok := r.pred, r.hasPred
	r.mu.RUnlock()
	if !ok || p.ID == r.self.ID {
		return false
	}
	return r.space.BetweenIncl(key, p.ID, r.self.ID)
}

// Responsible implements ring.Routing: `(pred, self]` when a
// predecessor is known, everything on a ring of one, unknown otherwise.
func (r *Ring) Responsible() (func(id.ID) bool, bool) {
	r.mu.RLock()
	p, hasPred := r.pred, r.hasPred
	alone := r.succs[0].ID == r.self.ID
	r.mu.RUnlock()
	switch {
	case hasPred && p.ID != r.self.ID:
		pid := p.ID
		return func(k id.ID) bool { return r.space.BetweenIncl(k, pid, r.self.ID) }, true
	case !hasPred && alone:
		// Ring of one: every key is ours.
		return func(id.ID) bool { return true }, true
	}
	return nil, false
}

// HandleRequest answers the Chord maintenance RPCs. A get-pred answer
// names the recent notifier nearest clockwise past the requester, and
// the predecessor when none lies between the two (predHint).
func (r *Ring) HandleRequest(m *wire.Message, resp *wire.Message) bool {
	switch m.Type {
	case wire.TGetPred:
		resp.Type = wire.TGetPredResp
		resp.Pred, resp.HasPred = r.predHint(m.From)
		succs := r.succList()
		if len(succs) > wire.MaxSuccs {
			succs = succs[:wire.MaxSuccs]
		}
		resp.Succs = succs
	case wire.TNotify:
		r.notify(m.From)
		resp.Type = wire.TNotifyAck
	default:
		return false
	}
	return true
}

// Stabilize runs one maintenance round: adopt the nearest recent
// notifier between this node and its successor (on a ring of one, any
// notifier, else the predecessor); ask the successor for its
// predecessor and, while the answer names a closer live node, adopt it
// and ask it in turn, at most NeighborListLen nodes a round; notify the
// successor so found, and rebuild the successor list from the last
// answer's list. Every adoption goes through Host.Alive, so a node that
// notified this one within the round costs no ping: the notify is a
// request, and the runtime marked it heard. A failed get-pred or notify
// ends the round and evicts nothing: the runtime suspects the target
// and its check decides (as it checks the predecessor every round).
// Each round also ages the notifier set by one generation, so a
// notifier is at most two rounds old. In steady state the only notifier
// is the predecessor, which never lies between this node and its
// successor, and the successor's answer is this node: the round sends
// one get-pred and one notify, as before.
func (r *Ring) Stabilize() {
	r.mu.Lock()
	s := r.succs[0]
	near, ok := r.nearestNotifierLocked(r.self.ID, s.ID)
	if !ok && s.ID == r.self.ID && r.hasPred && r.pred.ID != r.self.ID {
		near, ok = r.pred, true
	}
	r.notifiers[0], r.notifiers[1] = r.notifiers[1], r.notifiers[0]
	clear(r.notifiers[0])
	r.mu.Unlock()
	if ok && r.h.Alive(near.Addr) {
		r.adoptSuccessor(near)
		s = near
	}
	if s.ID == r.self.ID {
		return // ring of one, and nobody to adopt
	}
	var resp *wire.Message
	cand := s
	for asked := 1; ; asked++ {
		var err error
		if resp, err = r.h.Call(s.Addr, &wire.Message{Type: wire.TGetPred}); err != nil {
			return
		}
		p := resp.Pred
		if !resp.HasPred || p.ID == r.self.ID || p.Addr == "" ||
			!r.space.Between(p.ID, r.self.ID, s.ID) || !r.h.Alive(p.Addr) {
			break
		}
		r.adoptSuccessor(p)
		cand = p
		if asked >= r.maxSucc {
			break
		}
		s = p
	}
	if _, err := r.h.Call(cand.Addr, &wire.Message{Type: wire.TNotify}); err != nil {
		return
	}
	// Successor-list refresh: our successor first, then its list.
	list := make([]wire.Contact, 0, r.maxSucc+2)
	list = append(list, cand)
	if cand.ID != s.ID {
		list = append(list, s)
	}
	list = append(list, resp.Succs...)
	r.setSuccs(list)
}

// RepairTable refreshes RepairBatch fingers per call (one by default),
// round-robin: finger i is the first node in (self+2^i, self+2^{i+1}],
// found with an iterative lookup; an out-of-interval answer clears the
// entry. Batching divides the table's full refresh time by issuing
// several independent lookups per tick — the lever that pulls
// large-ring cold-start convergence down from minutes.
func (r *Ring) RepairTable() {
	for b := 0; b < r.repairBatch; b++ {
		r.mu.Lock()
		i := r.nextFinger
		r.nextFinger = (r.nextFinger + 1) % r.space.Bits()
		r.mu.Unlock()
		start := r.space.Add(r.self.ID, (uint64(1)<<i)+1)
		c, _, err := r.h.Resolve(start)
		if err != nil {
			continue
		}
		g := r.space.Gap(r.self.ID, c.ID)
		if c.ID != r.self.ID && g > uint64(1)<<i && g <= uint64(1)<<(i+1) {
			r.setFinger(i, c, true)
		} else {
			r.setFinger(i, wire.Contact{}, false)
		}
	}
}

// Heal folds a live contact rediscovered by the runtime's heal probe
// back into the ring: adopt it as successor when it sits between this
// node and the current successor, or unconditionally on a ring of one.
// This is the partition-repair mechanism — stabilize and notify only
// ever talk to nodes already in the routing state, so two rings that
// diverged while a partition was up would otherwise never re-merge.
func (r *Ring) Heal(live wire.Contact) {
	if live.IsZero() || live.ID == r.self.ID || live.Addr == "" {
		return
	}
	s := r.successor()
	if s.ID == r.self.ID || r.space.Between(live.ID, r.self.ID, s.ID) {
		r.adoptSuccessor(live)
	}
}

// DropPeer retires an unreachable peer from the successor list (an
// emptied list falls back on self, a ring of one until maintenance
// re-integrates the node), the predecessor pointer, the notifier set
// and the auxiliary set. Fingers heal on their round-robin refresh.
func (r *Ring) DropPeer(x id.ID) {
	r.RemoveAux(x)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.succs = slices.DeleteFunc(r.succs, func(s wire.Contact) bool { return s.ID == x })
	if len(r.succs) == 0 {
		r.succs = append(r.succs, r.self)
	}
	if r.hasPred && r.pred.ID == x {
		r.pred, r.hasPred = wire.Contact{}, false
	}
	delete(r.notifiers[0], x)
	delete(r.notifiers[1], x)
}

// Successors returns a copy of the successor list.
func (r *Ring) Successors() []wire.Contact { return r.succList() }

// Predecessor returns the current predecessor pointer.
func (r *Ring) Predecessor() (wire.Contact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pred, r.hasPred
}

// TableList returns the populated fingers, deduplicated, ascending by
// interval.
func (r *Ring) TableList() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []wire.Contact
	for i, ok := range r.hasFinger {
		if !ok {
			continue
		}
		f := r.fingers[i]
		if len(out) > 0 && out[len(out)-1].ID == f.ID {
			continue
		}
		out = append(out, f)
	}
	return out
}

// CoreIDs returns the node's core neighbor set — fingers and successor
// list, self excluded — the N_s of eq. 1, fed to the selection
// maintainer.
func (r *Ring) CoreIDs() []id.ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[id.ID]bool)
	var out []id.ID
	add := func(c wire.Contact) {
		if c.IsZero() || c.ID == r.self.ID || seen[c.ID] {
			return
		}
		seen[c.ID] = true
		out = append(out, c.ID)
	}
	for i, ok := range r.hasFinger {
		if ok {
			add(r.fingers[i])
		}
	}
	for _, s := range r.succs {
		add(s)
	}
	return out
}

// SelectAux implements ring.Routing under the ring distance metric of
// eq. 6: core.SelectChordFast, or core.SelectChordQoS (bounds in
// ChordDist hops) when bounds are given.
func (r *Ring) SelectAux(coreIDs []id.ID, peers []core.Peer, k int, bounds map[id.ID]uint) ([]id.ID, error) {
	var res core.Result
	var err error
	if bounds == nil {
		res, err = core.SelectChordFast(r.space, r.self.ID, coreIDs, peers, k)
	} else {
		res, err = core.SelectChordQoS(r.space, r.self.ID, coreIDs, peers, k, bounds)
	}
	return res.Aux, err
}

// successor returns the first entry of the successor list (self when
// alone).
func (r *Ring) successor() wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.succs[0]
}

func (r *Ring) succList() []wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]wire.Contact(nil), r.succs...)
}

// setSuccs installs a new successor list: zero contacts are dropped,
// duplicates keep their first (nearest) occurrence, and the result is
// truncated to maxSucc. An empty result falls back to self.
func (r *Ring) setSuccs(list []wire.Contact) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[id.ID]bool, len(list))
	out := make([]wire.Contact, 0, r.maxSucc)
	for _, c := range list {
		if c.IsZero() || seen[c.ID] {
			continue
		}
		seen[c.ID] = true
		out = append(out, c)
		r.h.Note(c)
		if len(out) == r.maxSucc {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, r.self)
	}
	r.succs = out
}

// adoptSuccessor prepends c as the new immediate successor.
func (r *Ring) adoptSuccessor(c wire.Contact) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.succs[0].ID == c.ID {
		r.succs[0] = c // refresh the address
		return
	}
	list := append([]wire.Contact{c}, r.succs...)
	if len(list) > r.maxSucc {
		list = list[:r.maxSucc]
	}
	r.succs = list
	r.h.Note(c)
}

// notify processes a notify(c): record c as a notifier of this round,
// and adopt it as predecessor if there is none or c sits between the
// current predecessor and self.
func (r *Ring) notify(c wire.Contact) {
	if c.ID == r.self.ID || c.Addr == "" {
		return
	}
	r.mu.Lock()
	r.noteNotifierLocked(c)
	if !r.hasPred || r.space.Between(c.ID, r.pred.ID, r.self.ID) {
		r.pred = c
		r.hasPred = true
	}
	r.mu.Unlock()
	r.h.Note(c)
}

// predHint answers a get-pred from x and records x as a notifier: a
// get-pred comes from a node that takes this one for its successor, as
// a notify does. The answer is the recent notifier nearest clockwise
// past x (nearestNotifierLocked), or the predecessor when none lies
// between x and self. A live node between x and this node is a closer
// successor for x than this node. In a join burst every joiner asks the
// bootstrap node, which then points each joiner at its true successor
// in one answer; in steady state the only notifier is the requester
// itself, and the answer is the predecessor.
func (r *Ring) predHint(x wire.Contact) (wire.Contact, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteNotifierLocked(x)
	if c, ok := r.nearestNotifierLocked(x.ID, r.self.ID); ok {
		return c, true
	}
	return r.pred, r.hasPred
}

// nearestNotifierLocked returns the node that notified this one within
// the last two stabilize rounds and lies nearest clockwise past x in
// (x, end); end == x stands for the whole ring but x. The caller holds
// mu.
func (r *Ring) nearestNotifierLocked(x, end id.ID) (wire.Contact, bool) {
	var best wire.Contact
	found := false
	for _, gen := range r.notifiers {
		for _, c := range gen {
			if r.space.Between(c.ID, x, end) && (!found || r.space.Gap(x, c.ID) < r.space.Gap(x, best.ID)) {
				best, found = c, true
			}
		}
	}
	return best, found
}

// noteNotifierLocked records c in this round's notifier set, unless c
// is this node or has no address. The caller holds mu.
func (r *Ring) noteNotifierLocked(c wire.Contact) {
	if c.ID == r.self.ID || c.Addr == "" {
		return
	}
	if r.notifiers[0] == nil {
		r.notifiers[0] = make(map[id.ID]wire.Contact)
	}
	r.notifiers[0][c.ID] = c
}

// setFinger installs (or clears, when ok is false) finger i.
func (r *Ring) setFinger(i uint, c wire.Contact, ok bool) {
	r.mu.Lock()
	r.hasFinger[i] = ok
	if ok {
		r.fingers[i] = c
	} else {
		r.fingers[i] = wire.Contact{}
	}
	r.mu.Unlock()
	if ok {
		r.h.Note(c)
	}
}

// closestPreceding picks the next hop for target: over fingers,
// successor list, and auxiliary neighbors, the contact with the largest
// clockwise gap from self that does not overshoot the target — the
// candidate window is (self, target], matching the simulator's routing
// (internal/chord), so an auxiliary pointer at the destination itself
// is a legal (and ideal, one-hop) next step. Falls back to the
// successor when nothing qualifies.
func (r *Ring) closestPreceding(target id.ID) wire.Contact {
	r.mu.RLock()
	defer r.mu.RUnlock()
	gt := r.space.Gap(r.self.ID, target)
	best := r.succs[0]
	bestGap := uint64(0)
	consider := func(c wire.Contact) {
		if c.IsZero() || c.ID == r.self.ID {
			return
		}
		g := r.space.Gap(r.self.ID, c.ID)
		if g == 0 || g > gt {
			return // self or overshoot
		}
		if g > bestGap {
			best, bestGap = c, g
		}
	}
	for i, ok := range r.hasFinger {
		if ok {
			consider(r.fingers[i])
		}
	}
	for _, s := range r.succs {
		consider(s)
	}
	for _, a := range r.Aux() {
		consider(a)
	}
	return best
}
