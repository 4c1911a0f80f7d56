package node

import (
	"fmt"
	"sort"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// router is the slice of ring.Routing the lookup driver calls. A Node
// passes its geometry straight through; the anonymous Client, which
// holds no routing table, passes an anonRouter.
type router interface {
	Distance(target, candidate id.ID) uint64
	LookupRequest(target id.ID) *wire.Message
	ParseLookupResponse(target id.ID, resp *wire.Message) (found wire.Contact, done bool, candidates []wire.Contact)
	DropPeer(x id.ID)
	HasAux(x id.ID) bool
}

// lookup is the iterative lookup driver: the α-parallel, hedged race
// over a distance-ordered candidate frontier that every walk of the
// live stack runs on — a node's FindSuccessor, Get fallback and
// FindValue, and the anonymous Client's Resolve and reads. It holds the
// transport it probes through and the router it ranks and parses with,
// and nothing of the node that owns it.
//
// The transport's own contact is excluded from every frontier: a node
// never probes itself. An anonymous transport has no address and so no
// self to exclude, which keeps every ring member — the one with id 0
// included — probeable.
type lookup struct {
	tr      *transport
	rt      router
	alpha   int
	timeout time.Duration
	retries int
	maxHops int
	// note records every contact a response names, and rtt reads a
	// contact's smoothed RTT for proximity routing. Either may be nil; a
	// driver without rtt never routes by proximity.
	note func(wire.Contact)
	rtt  func(id.ID) (time.Duration, bool)
}

// newLookup builds a driver with cfg's lookup policy and no hooks.
func newLookup(tr *transport, rt router, cfg Config) lookup {
	return lookup{
		tr:      tr,
		rt:      rt,
		alpha:   cfg.LookupAlpha,
		timeout: cfg.RPCTimeout,
		retries: cfg.RPCRetries,
		maxHops: cfg.MaxLookupHops,
	}
}

// raceOutcome is one settled α-parallel lookup: the resolving contact
// (plus, in value mode, the value it answered with), the hop count, and
// whether the walk was an aux hit (see auxHit).
type raceOutcome struct {
	owner   wire.Contact
	value   []byte
	version uint64
	hops    int
	auxHit  bool
}

// probeResult carries one probe's answer back to the race loop.
type probeResult struct {
	peer  wire.Contact
	depth int
	resp  *wire.Message
	err   error
}

// frontierEntry is one unprobed lookup candidate: the contact, its
// geometry distance to the target (the frontier's sort key), and the
// path depth its probe would report.
type frontierEntry struct {
	c     wire.Contact
	dist  uint64
	depth int
}

// qosProbeWindow caps how many frontier candidates an RTT-aware lookup
// step inspects. The frontier is distance-sorted, so anything past a
// short prefix is a worse routing step regardless of link cost.
const qosProbeWindow = 4

// qosProbeIndex picks the frontier index to probe next when the node
// routes QoS-aware (proximity route selection, the lookup-side half of
// the paper's delay model): among the first qosProbeWindow candidates
// whose geometry distance is within ~2× the best remaining distance —
// so a cheap-link detour still halves the gap and the walk keeps its
// O(log n) convergence — the one with the lowest measured smoothed
// RTT. Candidates without a measurement are skipped (no opinion), and
// if nothing in the window is measured the geometry's own first pick
// stands, so the mode degrades to plain greedy exactly where the RTT
// plane has no data. The 2× test is done as dist>>1 <= best to stay
// overflow-safe on full-width ring distances.
func qosProbeIndex(frontier []frontierEntry, rtt func(id.ID) (time.Duration, bool)) int {
	best := -1
	var bestRTT time.Duration
	limit := len(frontier)
	if limit > qosProbeWindow {
		limit = qosProbeWindow
	}
	for i := 0; i < limit; i++ {
		if frontier[i].dist>>1 > frontier[0].dist {
			break // sorted frontier: every later entry is farther still
		}
		if d, ok := rtt(frontier[i].c.ID); ok && (best < 0 || d < bestRTT) {
			best, bestRTT = i, d
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// race drives one iterative lookup with up to alpha probes in flight.
// The frontier holds unprobed candidates ordered by the router's
// Distance (ties by id); each launched probe carries its path depth —
// seed contacts are depth 1, contacts learned from a depth-d response
// are depth d+1 — and the first response that resolves the target wins
// with hops equal to its depth. The deferred close of the cancel
// channel aborts the losing probes; their callCancel deregisters each
// inflight entry, and a response straggling in later finds no waiter
// and is dropped, so cancelled probes leak nothing (see
// transport.callCancel).
//
// Launches are hedged, not eager: every response or probe failure
// launches one follow-up probe immediately (the chain a serial walk
// would make), and an *additional* probe launches only when no event
// has arrived for timeout/4. On a healthy network the first probe of
// each step answers well inside the stagger, so traffic stays at the
// serial walk's one-probe-per-step; under loss or a stalled peer the
// hedge fires long before the full timeout-and-retry budget burns,
// which is where racing wins. Eagerly filling all α slots per step
// triples healthy-path traffic for nothing — and worse, one scheduling
// stall then times out α probes at once, and the resulting DropPeer
// burst can collapse a chord node's entire successor list, after which
// it answers lookups as a ring of one and overclaims keys it does not
// own.
//
// With qos set and an rtt hook, each launch routes by proximity instead
// of taking the frontier head blindly: qosProbeIndex may promote a
// near-in-distance candidate with a known-cheap link over the router's
// strict pick (see its comment for the convergence argument). The
// caller latches qos once per walk, so a mid-walk toggle cannot mix
// policies within one walk.
//
// In value mode every probe is a TFindValue and the walk ends at the
// first copy holder; otherwise probes are the router's LookupRequest
// and the walk ends at the first Done answer.
//
// Failure reporting mirrors the old serial driver: a probe error
// retires the peer via DropPeer and is remembered verbatim, and when
// the frontier drains without an answer the lookup fails with (in
// precedence order) the last probe error, the hop-budget error, a
// not-found error in value mode, or a no-progress error naming the
// last peer that answered.
func (l *lookup) race(target id.ID, seed []wire.Contact, valueMode, qos bool) (raceOutcome, error) {
	var frontier []frontierEntry
	queried := make(map[id.ID]bool)
	if self := l.tr.self; self.Addr != "" {
		queried[self.ID] = true
	}
	push := func(c wire.Contact, depth int) {
		if c.IsZero() || c.Addr == "" || queried[c.ID] {
			return
		}
		queried[c.ID] = true
		d := l.rt.Distance(target, c.ID)
		if valueMode {
			// Copies live at the key's owner and the owner's replica
			// successors — on an asymmetric ring metric (chord's
			// clockwise gap) those rank as the FARTHEST candidates,
			// because the metric measures routing progress toward the
			// key and a holder sits just past it. Ranking by whichever
			// side of the key is nearer keeps the predecessor walk
			// converging while probing named holders immediately,
			// instead of draining every predecessor in the ring (and
			// the hop budget with it) before the one contact that can
			// answer. Symmetric metrics (XOR, circular) are unchanged.
			if rd := l.rt.Distance(c.ID, target); rd < d {
				d = rd
			}
		}
		i := sort.Search(len(frontier), func(i int) bool {
			return frontier[i].dist > d || (frontier[i].dist == d && frontier[i].c.ID > c.ID)
		})
		frontier = append(frontier, frontierEntry{})
		copy(frontier[i+1:], frontier[i:])
		frontier[i] = frontierEntry{c: c, dist: d, depth: depth}
	}
	for _, c := range seed {
		push(c, 1)
	}
	makeReq := func() *wire.Message {
		// A fresh message per probe: callCancel stamps MsgID and From,
		// so concurrent probes must not share one.
		if valueMode {
			return &wire.Message{Type: wire.TFindValue, Key: target}
		}
		return l.rt.LookupRequest(target)
	}
	results := make(chan probeResult, l.alpha)
	cancel := make(chan struct{})
	defer close(cancel)
	var (
		inflight int
		hops     int
		lastErr  error
		lastPeer wire.Contact
	)
	qos = qos && l.rtt != nil
	launch := func() {
		if inflight < l.alpha && len(frontier) > 0 && hops < l.maxHops {
			i := 0
			if qos {
				i = qosProbeIndex(frontier, l.rtt)
			}
			e := frontier[i]
			frontier = append(frontier[:i], frontier[i+1:]...)
			hops++
			inflight++
			go func(e frontierEntry) {
				resp, err := l.tr.callCancel(e.c.Addr, makeReq(), l.timeout, l.retries, cancel)
				results <- probeResult{peer: e.c, depth: e.depth, resp: resp, err: err}
			}(e)
		}
	}
	stagger := l.timeout / 4
	if stagger <= 0 {
		stagger = time.Millisecond
	}
	hedge := time.NewTimer(stagger)
	defer hedge.Stop()
	launch()
	for inflight > 0 {
		if !hedge.Stop() {
			select {
			case <-hedge.C:
			default:
			}
		}
		hedge.Reset(stagger)
		var r probeResult
		select {
		case r = <-results:
		case <-hedge.C:
			launch()
			continue
		}
		inflight--
		lastPeer = r.peer
		if r.err != nil {
			// The contact is unreachable: retire it from the routing
			// state so the maintenance loops repair around it.
			l.rt.DropPeer(r.peer.ID)
			lastErr = fmt.Errorf("node: lookup %d at %v: %w", target, r.peer, r.err)
			launch()
			continue
		}
		l.noteContact(r.resp.From)
		if valueMode {
			if r.resp.OK {
				return raceOutcome{owner: r.peer, value: r.resp.Value, version: r.resp.Version, hops: r.depth, auxHit: l.auxHit(r)}, nil
			}
			for _, c := range r.resp.Closest {
				l.noteContact(c)
				push(c, r.depth+1)
			}
			launch()
			continue
		}
		found, done, candidates := l.rt.ParseLookupResponse(target, r.resp)
		if done {
			if found.IsZero() {
				lastErr = fmt.Errorf("node: lookup %d: empty answer from %v", target, r.peer)
				launch()
				continue
			}
			l.noteContact(found)
			return raceOutcome{owner: found, hops: r.depth, auxHit: l.auxHit(r)}, nil
		}
		for _, c := range candidates {
			l.noteContact(c)
			push(c, r.depth+1)
		}
		launch()
	}
	if lastErr != nil {
		return raceOutcome{hops: hops}, lastErr
	}
	if hops >= l.maxHops {
		return raceOutcome{hops: hops}, fmt.Errorf("node: lookup %d: exceeded %d hops", target, l.maxHops)
	}
	if valueMode {
		return raceOutcome{hops: hops}, fmt.Errorf("node: find-value %d: %w", target, ErrNotFound)
	}
	return raceOutcome{hops: hops}, fmt.Errorf("node: lookup %d: no progress at %v", target, lastPeer)
}

// noteContact passes c to the note hook, if any.
func (l *lookup) noteContact(c wire.Contact) {
	if l.note != nil {
		l.note(c)
	}
}

// auxHit reports the paper's cache-hit event for a winning probe: a
// first-hop probe aimed at a current auxiliary neighbor, so the aux
// shortcut finished the walk in one step. Owner-aliased entries count
// too — their frontier contact carries the aliased key position as its
// id, which is exactly what the aux set holds.
func (l *lookup) auxHit(r probeResult) bool {
	return r.depth == 1 && l.rt.HasAux(r.peer.ID)
}
