package node

// The liveness plane (DESIGN.md §6) owns every eviction: a failed RPC
// (a lookup probe, or a call that timed out) makes a suspect, and only
// a failed Alive evicts, through Routing.DropPeer, which no geometry
// calls. Each stabilize round checks the aux set, the suspects and the
// predecessor: the paper's auxiliary pointers "ride the same ping
// process as core ones" (Section III). Every decision is keyed by
// address, and so is the heard stamp it reads (rtt.go's peer record):
// one endpoint answers for every id cached at it.

import (
	"errors"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// epoch anchors the heard stamps on the monotonic clock.
var epoch = time.Now()

// stampNow is the current heard stamp.
func stampNow() int64 { return int64(time.Since(epoch)) }

// alive is ring.Host.Alive: check under the node's retry policy.
func (n *Node) alive(addr string) bool { return n.check(addr, n.cfg.RPCRetries) }

// check reports true without I/O when addr was heard within
// StabilizeEvery, else whether one ping (RPCTimeout per attempt, the
// given retries, no suspect) is answered. A failed ping evicts every
// contact cached at addr (an owner-aliased aux pointer a peer passed on
// shares its owner's address); the cache keeps them, for the heal
// probe.
func (n *Node) check(addr string, retries int) bool {
	n.livenessChecks.Add(1)
	heard := int64(0)
	n.addrMu.RLock()
	if p := n.peers[addr]; p != nil {
		heard = p.heard.Load()
	}
	n.addrMu.RUnlock()
	if heard > 0 && stampNow()-heard < int64(n.cfg.StabilizeEvery) {
		return true
	}
	n.livenessPings.Add(1)
	_, err := n.tr.call(addr, &wire.Message{Type: wire.TPing}, n.cfg.RPCTimeout, retries)
	if err == nil {
		return true
	}
	if errors.Is(err, ErrClosed) {
		return false // shutting down: no verdict
	}
	var dead []id.ID
	n.addrMu.RLock()
	for x, at := range n.addrs {
		if at == addr {
			dead = append(dead, x)
		}
	}
	n.addrMu.RUnlock()
	for _, x := range dead {
		n.rt.DropPeer(x)
	}
	if len(dead) > 0 {
		n.evictions.Add(1)
	}
	return false
}

// suspect is the hook for a failed RPC: addr loses its heard stamp, so
// its confirmation pings, and waits for the next stabilize round.
func (n *Node) suspect(addr string) {
	n.addrMu.RLock()
	if p := n.peers[addr]; p != nil {
		p.heard.Store(0)
	}
	n.addrMu.RUnlock()
	n.suspectMu.Lock()
	n.suspects[addr] = struct{}{}
	n.suspectMu.Unlock()
}

// checkLiveness checks the aux set, the suspects and the predecessor,
// once per distinct address: aliased entries for one owner's hot keys,
// a direct entry to it, or a suspect that is also an aux entry share an
// address, and that node answers for all of them. A dead aux entry
// also leaves the aux set with its caches. A suspect's check is a
// single attempt: the RPC that made it a suspect spent the retries.
func (n *Node) checkLiveness() {
	verdict := make(map[string]bool)
	alive := func(addr string, retries int) bool {
		ok, checked := verdict[addr]
		if !checked {
			ok = n.check(addr, retries)
			verdict[addr] = ok
		}
		return ok
	}
	for _, a := range n.rt.Aux() {
		if alive(a.Addr, n.cfg.RPCRetries) {
			continue
		}
		n.rt.RemoveAux(a.ID)
		// Without its caches the next recompute cannot reinstall the
		// entry at the same dead address, a loop that never converges.
		// The id is a node id for a direct entry (forget its address) or
		// a key position for an aliased one (invalidate its owner hint).
		n.forgetAddr(a.ID, a.Addr)
		n.ownerHints.Invalidate(a.ID)
	}
	n.suspectMu.Lock()
	suspects := n.suspects
	n.suspects = make(map[string]struct{})
	n.suspectMu.Unlock()
	for addr := range suspects {
		alive(addr, 0)
	}
	// Usually free: chord hears its predecessor's notify every round,
	// and pastry and kademlia probe theirs.
	if p, ok := n.rt.Predecessor(); ok && p.ID != n.self.ID && p.Addr != "" {
		alive(p.Addr, n.cfg.RPCRetries)
	}
}
