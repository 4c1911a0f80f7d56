package node

// The liveness plane (DESIGN.md §6): every liveness check of the
// runtime and of every geometry is Alive, which pings only a contact not
// heard from within one StabilizeEvery — the paper's auxiliary pointers
// "ride the same ping process as core ones" (Section III). A failed
// lookup probe makes its contact a suspect, and only a failed check in
// the next stabilize round evicts it.

import (
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// epoch anchors the heard stamps on the monotonic clock.
var epoch = time.Now()

// stampNow is the current heard stamp.
func stampNow() int64 { return int64(time.Since(epoch)) }

// alive is ring.Host.Alive: true without I/O when the contact at addr
// was heard within StabilizeEvery, else whether one ping (under the
// node's timeout and retry policy) is answered.
func (n *Node) alive(addr string) bool {
	n.livenessChecks.Add(1)
	heard := int64(0)
	n.addrMu.RLock()
	if rec := n.contactAtLocked(addr); rec != nil {
		heard = rec.heard.Load()
	}
	n.addrMu.RUnlock()
	if heard > 0 && stampNow()-heard < int64(n.cfg.StabilizeEvery) {
		return true
	}
	n.livenessPings.Add(1)
	_, err := n.call(addr, &wire.Message{Type: wire.TPing})
	return err == nil
}

// suspect is the lookup driver's hook for a failed probe: c loses its
// heard stamp, so its confirmation pings, and waits for the next
// stabilize round.
func (n *Node) suspect(c wire.Contact) {
	n.addrMu.RLock()
	if rec := n.contactAtLocked(c.Addr); rec != nil {
		rec.heard.Store(0)
	}
	n.addrMu.RUnlock()
	n.suspectMu.Lock()
	n.suspects[c.ID] = c.Addr
	n.suspectMu.Unlock()
}

// checkLiveness checks the aux set and the suspects, once per distinct
// address: aliased entries for one owner's hot keys, a direct entry to
// it, or a suspect that is also an aux entry share an address, and that
// node answers for all of them. A dead aux entry leaves the aux set; a
// dead suspect leaves the routing state.
func (n *Node) checkLiveness() {
	verdict := make(map[string]bool)
	alive := func(addr string) bool {
		ok, checked := verdict[addr]
		if !checked {
			ok = n.alive(addr)
			verdict[addr] = ok
		}
		return ok
	}
	for _, a := range n.rt.Aux() {
		if alive(a.Addr) {
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
	n.suspectMu.Lock()
	suspects := n.suspects
	n.suspects = make(map[id.ID]string)
	n.suspectMu.Unlock()
	for x, addr := range suspects {
		if !alive(addr) {
			n.rt.DropPeer(x)
			n.suspectEvictions.Add(1)
		}
	}
}
