package soak

import (
	"fmt"
	"time"

	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
	"peercache/internal/replication"
)

// The checker contract: a checker is a nullary closure over the engine
// returning the current deviation (nil when the invariant holds), and
// the window polls it under the step clock with a bounded budget —
// Clock.WaitUntil(budget, check). Checkers must be read-only probes of
// node introspection APIs (ItemDetail, Aux, the Ring accessors): the
// maintenance tickers are what move the cluster toward the invariant,
// the checker only observes. A deviation that outlasts its budget is a
// Violation. See DESIGN.md §7.

// quiesce runs one quiescent window: restore the network to perfect
// (heal every partition, cancel any ramp), wait for the convergence
// oracle, then run the data-plane and aux checkers. Any violation
// halts the scenario after the window — later checks still run, so a
// verdict shows every invariant the state breaks, not just the first.
func (e *engine) quiesce() {
	e.v.Windows++
	healed := e.nw.HealAll()
	e.parts = nil
	e.nw.SetDefaultPolicy(memnet.LinkPolicy{})
	e.o.Logf("soak: window %d: %d live nodes, healed %v", e.v.Windows, len(e.live), healed)

	if err := e.clock.WaitUntil(convergeSteps, e.convergeCheck); err != nil {
		e.violate("converge", "%v", err)
		// Without a converged ring the remaining invariants are not
		// judgeable: ownership is still legitimately in motion.
		return
	}
	if err := e.clock.WaitUntil(settleSteps, e.ownerUniqueCheck); err != nil {
		e.violate("owner-unique", "%v", err)
	}
	if err := e.clock.WaitUntil(settleSteps, e.durabilityCheck); err != nil {
		e.violate("durability", "%v", err)
	}
	if err := e.clock.WaitUntil(settleSteps, e.auxValidCheck); err != nil {
		e.violate("aux-valid", "%v", err)
	}
	if err := e.clock.WaitUntil(settleSteps, e.strandedCheck); err != nil {
		e.violate("stranded", "%v", err)
	}
	if err := e.clock.WaitUntil(settleSteps, e.replicaFreshCheck); err != nil {
		e.violate("replica-fresh", "%v", err)
	}
	if err := e.clock.WaitUntil(settleSteps, e.latencySaneCheck); err != nil {
		e.violate("latency-sane", "%v", err)
	}
	if err := e.ownerCheck(); err != nil {
		e.violate("wrong-owner", "%v", err)
	}
	e.countStranded()
	e.o.Logf("soak: window %d done at step %d", e.v.Windows, e.clock.Steps())
}

// ownerCheck resolves every key of the universe once, from live nodes
// in turn, and requires the live membership's oracle owner: on a
// converged, quiet overlay a lookup has no excuse for another answer —
// a node that lost its successors and answers as a ring of one would
// give one. A lookup that fails is the op-failure count's business.
// One-shot, not polled: a wrong answer after the window has settled is
// already the violation.
func (e *engine) ownerCheck() error {
	for i, k := range e.keys {
		src := e.live[i%len(e.live)]
		owner, _, err := src.FindSuccessor(k)
		if err != nil {
			continue
		}
		if want := e.oracleOwner(k); owner.ID != want {
			e.v.WrongOwner++
			return fmt.Errorf("node %d resolved key %d to %d, owner is %d", src.ID(), k, owner.ID, want)
		}
	}
	return nil
}

// convergeCheck compares every live node's routing state against the
// protocol's cluster oracle.
func (e *engine) convergeCheck() error {
	return convergeChecks[e.o.Proto](e.space, e.live, successorListLen)
}

// ownerUniqueCheck enforces single owned authority: no key may be held
// as owned by two live nodes at once. (Zero owners is judged by the
// durability checker — a key can legitimately be mid-handoff, and
// countStranded reports the lasting zero-owner cases.) Dual ownership
// is exactly what a lost demotion produces after a partition heals,
// and it converges to one owner within a replication round once the
// ring has converged — hence a polled check, not a one-shot.
func (e *engine) ownerUniqueCheck() error {
	for k, ks := range e.ledger {
		if len(ks.written) == 0 {
			continue
		}
		owners := 0
		var where []uint64
		for _, n := range e.live {
			if it, ok := n.ItemDetail(k); ok && it.Owned {
				owners++
				where = append(where, uint64(n.ID()))
			}
		}
		if owners > 1 {
			return fmt.Errorf("key %d owned by %d nodes %v", k, owners, where)
		}
	}
	return nil
}

// durabilityCheck enforces the acknowledged-write invariant: every
// acked, non-forfeited key must have a live copy at version ≥ the
// acked version, and no copy of any key may carry a value that was
// never written (phantom). Copies never regress — versions only grow
// at a holder, demotion keeps the bytes — so the only way to lose one
// is to lose its holders, which the ledger converts into forfeits at
// crash/leave time.
func (e *engine) durabilityCheck() error {
	for k, ks := range e.ledger {
		best := uint64(0)
		found := false
		for _, n := range e.live {
			it, ok := n.ItemDetail(k)
			if !ok {
				continue
			}
			if !ks.written[string(it.Value)] {
				return fmt.Errorf("key %d: node %d holds phantom value %q", k, n.ID(), it.Value)
			}
			found = true
			if it.Version > best {
				best = it.Version
			}
		}
		if ks.acked && !ks.forfeited {
			if !found {
				return fmt.Errorf("key %d: acked at version %d, no live copy", k, ks.ackVersion)
			}
			if best < ks.ackVersion {
				return fmt.Errorf("key %d: acked at version %d, best live copy %d", k, ks.ackVersion, best)
			}
		}
	}
	return nil
}

// auxValidCheck enforces bounded eviction of stale auxiliary pointers:
// after a quiescent settle, every installed aux entry must resolve to
// a live node's address. The runtime's stabilize round pings each aux
// entry and, on failure, retires both the entry and the caches it was
// installed from (node.go), so a dead pointer survives at most the
// ping timeout plus one recompute — well inside the settle budget. An
// entry that persists past it means the evict/reinstall loop the cache
// invalidation exists to break is back.
func (e *engine) auxValidCheck() error {
	liveAddr := make(map[string]bool, len(e.live))
	for _, n := range e.live {
		liveAddr[n.Addr()] = true
	}
	for _, n := range e.live {
		for _, a := range n.Aux() {
			if !liveAddr[a.Addr] {
				return fmt.Errorf("node %d aux %d -> %s points at no live node", n.ID(), a.ID, a.Addr)
			}
		}
	}
	return nil
}

// strandedCheck enforces the repair invariant: once the network is
// quiet, no key may survive only as replicas (copies exist, ring owner
// holds none — so overlay Gets miss while the bytes survive). The
// replication loop's stranded-repair pass pushes such replicas back to
// the resolved owner, bounding the stranded state by the staleness
// threshold plus a replication round; a key still stranded after the
// settle budget means that repair loop lost it.
func (e *engine) strandedCheck() error {
	for k, ks := range e.ledger {
		if len(ks.written) == 0 {
			continue
		}
		owners, copies := 0, 0
		for _, n := range e.live {
			if it, ok := n.ItemDetail(k); ok {
				copies++
				if it.Owned {
					owners++
				}
			}
		}
		if owners == 0 && copies > 0 {
			return fmt.Errorf("key %d stranded: %d replica copies, no owner", k, copies)
		}
	}
	return nil
}

// replicaFreshCheck enforces the bounded-staleness contract the
// replica-served read path rests on: once the network is quiet and the
// ring converged, every live node that is a *current* replication
// target of a key's owner must hold that key at the owner's version —
// digest anti-entropy defers the bytes by at most one round, and the
// settle budget covers many rounds. The scope is deliberately the
// current target set (replication.Targets over the owner's live
// successor list): a node that rotated out of the set legitimately
// keeps its last copy until TTL expiry, and serving that copy is
// exactly the staleness the contract bounds, not a violation. Targets
// that are no longer live are skipped — the next replication round
// re-targets around them.
func (e *engine) replicaFreshCheck() error {
	byID := make(map[id.ID]*node.Node, len(e.live))
	for _, n := range e.live {
		byID[n.ID()] = n
	}
	for k, ks := range e.ledger {
		if !ks.acked || ks.forfeited {
			continue
		}
		var owner *node.Node
		var ownerVersion uint64
		for _, n := range e.live {
			if it, ok := n.ItemDetail(k); ok && it.Owned {
				owner = n
				ownerVersion = it.Version
				break
			}
		}
		if owner == nil {
			continue // zero owners is the stranded/durability checkers' territory
		}
		succs := owner.Successors()
		succIDs := make([]id.ID, len(succs))
		for i, s := range succs {
			succIDs[i] = s.ID
		}
		for _, tgt := range replication.Targets(owner.ID(), succIDs, replicationFactor) {
			rn, ok := byID[tgt]
			if !ok {
				continue
			}
			it, ok := rn.ItemDetail(k)
			if !ok {
				return fmt.Errorf("key %d: current target %d holds no replica (owner %d at v%d)",
					k, tgt, owner.ID(), ownerVersion)
			}
			if it.Version < ownerVersion {
				return fmt.Errorf("key %d: replica at target %d stale at v%d, owner %d at v%d",
					k, tgt, it.Version, owner.ID(), ownerVersion)
			}
		}
	}
	return nil
}

// soakWANScale compresses the WAN topology's delays for Options.WAN
// runs (see NewWANTopology): 1/50 keeps the worst link RTT around 6ms —
// real heterogeneity, still inside every step-clock budget.
const soakWANScale = 0.02

// latencySaneCeiling is the absurdity bar for a smoothed RTT estimate.
// Every sample is a correlated request/response round trip bounded by
// the 100ms RPC timeout (startNode), and the EWMA of bounded samples is
// bounded by their max — an estimate past 1s means the estimator fed on
// something that was not a round trip.
const latencySaneCeiling = time.Second

// latencySaneCheck enforces the latency plane's hygiene invariants on
// every live node's RTT table: every estimate is positive, below the
// absurdity ceiling, backed by at least one sample, never for the node
// itself, and — the eviction-atomicity contract of observeRTT and
// forgetAddr — backed by a live address-cache entry, so churn never
// leaves an orphaned estimate feeding stale costs into QoS selection.
func (e *engine) latencySaneCheck() error {
	for _, n := range e.live {
		for _, r := range n.ContactRTTs() {
			if r.ID == n.ID() {
				return fmt.Errorf("node %d tracks an RTT estimate for itself", n.ID())
			}
			if r.Samples == 0 {
				return fmt.Errorf("node %d: estimate for %d with zero samples", n.ID(), r.ID)
			}
			if r.SRTT <= 0 {
				return fmt.Errorf("node %d: non-positive RTT %v for %d", n.ID(), r.SRTT, r.ID)
			}
			if r.SRTT > latencySaneCeiling {
				return fmt.Errorf("node %d: absurd RTT %v for %d (ceiling %v)", n.ID(), r.SRTT, r.ID, latencySaneCeiling)
			}
			if r.Addr == "" {
				return fmt.Errorf("node %d: orphaned RTT estimate for %d (no address-cache entry)", n.ID(), r.ID)
			}
		}
	}
	return nil
}

// countStranded records the stranded residue for the verdict after
// strandedCheck has been judged — 0 on a passing window, and on a
// failing one the size of what the repair loop left behind.
func (e *engine) countStranded() {
	stranded := 0
	for k, ks := range e.ledger {
		if len(ks.written) == 0 {
			continue
		}
		owners, copies := 0, 0
		for _, n := range e.live {
			if it, ok := n.ItemDetail(k); ok {
				copies++
				if it.Owned {
					owners++
				}
			}
		}
		if owners == 0 && copies > 0 {
			stranded++
			e.o.Logf("soak: window %d: key %d stranded (%d replica copies, no owner)", e.v.Windows, k, copies)
		}
	}
	e.v.Stranded += stranded
}
