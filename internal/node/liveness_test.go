package node

import (
	"slices"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/wire"
)

// heardStamp reads the heard stamp at x's cached address (0: never, or
// suspected since) and whether that address has a record at all.
func heardStamp(n *Node, x id.ID) (int64, bool) {
	n.addrMu.RLock()
	defer n.addrMu.RUnlock()
	p := n.peers[n.addrs[x]]
	if p == nil {
		return 0, false
	}
	return p.heard.Load(), true
}

// A request marks its sender heard, and so does a correlated reply —
// but not a pong, which only answers a liveness check. forgetAddr drops
// the heard stamp with the address and the estimate.
func TestRequestAndReplyMarkHeard(t *testing.T) {
	space := id.NewSpace(16)
	nw := memnet.New(1)
	defer nw.CloseAll()
	a, _ := tappedNode(t, nw, space, 1000)
	b, _ := tappedNode(t, nw, space, 40000)

	if _, err := b.call(a.Addr(), &wire.Message{Type: wire.TFindSucc, Target: 5}); err != nil {
		t.Fatal(err)
	}
	if h, ok := heardStamp(a, b.ID()); !ok || h == 0 {
		t.Fatalf("a request left its sender unheard (record %t, stamp %d)", ok, h)
	}
	if h, ok := heardStamp(b, a.ID()); !ok || h == 0 {
		t.Fatalf("a find-succ reply left its sender unheard (record %t, stamp %d)", ok, h)
	}

	c, _ := tappedNode(t, nw, space, 20000)
	if err := a.Ping(c.Addr()); err != nil {
		t.Fatal(err)
	}
	if h, ok := heardStamp(a, c.ID()); !ok || h != 0 {
		t.Fatalf("a pong stamped its sender heard (record %t, stamp %d)", ok, h)
	}
	if _, ok := a.ContactRTT(c.ID()); !ok {
		t.Fatal("the pong's round trip was not timed")
	}
	if h, _ := heardStamp(c, a.ID()); h == 0 {
		t.Fatal("the ping request left its sender unheard")
	}

	a.forgetAddr(b.ID(), b.Addr())
	if _, ok := heardStamp(a, b.ID()); ok {
		t.Fatal("forgetAddr left the record behind")
	}
	if _, ok := a.ContactRTT(b.ID()); ok {
		t.Fatal("forgetAddr left the estimate behind")
	}
}

// Alive answers without I/O for a contact heard within StabilizeEvery
// and pings exactly once otherwise; its own pong does not vouch for the
// next check, and a lookup suspicion clears the stamp.
func TestAliveSkipsHeardContact(t *testing.T) {
	space := id.NewSpace(16)
	nw := memnet.New(1)
	defer nw.CloseAll()
	a, _ := tappedNode(t, nw, space, 1000)
	b, bTap := tappedNode(t, nw, space, 40000)

	if _, err := b.call(a.Addr(), &wire.Message{Type: wire.TFindSucc, Target: 5}); err != nil {
		t.Fatal(err)
	}
	// The node is parked, so nothing else reads the period.
	a.cfg.StabilizeEvery = time.Hour
	if !a.alive(b.Addr()) || bTap.got.Load() != 0 {
		t.Fatalf("heard contact: %d pings, want none", bTap.got.Load())
	}

	a.cfg.StabilizeEvery = time.Nanosecond // the stamp is now stale
	if !a.alive(b.Addr()) || bTap.got.Load() != 1 {
		t.Fatalf("contact heard longer ago than the period: %d pings, want 1", bTap.got.Load())
	}
	if !a.alive(b.Addr()) || bTap.got.Load() != 2 {
		t.Fatalf("check right after a pong: %d pings in total, want 2", bTap.got.Load())
	}

	if _, err := b.call(a.Addr(), &wire.Message{Type: wire.TFindSucc, Target: 5}); err != nil {
		t.Fatal(err)
	}
	a.cfg.StabilizeEvery = time.Hour
	a.suspect(b.Addr())
	if !a.alive(b.Addr()) || bTap.got.Load() != 3 {
		t.Fatalf("suspected contact: %d pings in total, want 3", bTap.got.Load())
	}
	if m := a.Metrics(); m.LivenessChecks != 4 || m.LivenessPings != 3 {
		t.Fatalf("metrics: %d checks, %d pings; want 4, 3", m.LivenessChecks, m.LivenessPings)
	}
}

// A find-value answer can carry an owner-aliased aux pointer — {key
// position, owner's address} — and the lookup driver notes it. The
// alias shares the owner's record: the hedge RTO still reads the
// owner's estimate there, and Alive within the period still answers
// from the owner's heard stamp, without a ping.
func TestAliasedNoteKeepsOwnerRecord(t *testing.T) {
	space := id.NewSpace(16)
	nw := memnet.New(1)
	defer nw.CloseAll()
	a, _ := tappedNode(t, nw, space, 1000)
	b, bTap := tappedNode(t, nw, space, 40000)

	if _, err := a.call(b.Addr(), &wire.Message{Type: wire.TFindSucc, Target: 5}); err != nil {
		t.Fatal(err)
	}
	want, ok := a.rttAt(b.Addr())
	if !ok {
		t.Fatal("the owner's reply left no estimate at its address")
	}
	a.lk.note(wire.Contact{ID: 39000, Addr: b.Addr()}) // the aliased pointer
	if addr, ok := a.resolve(39000); !ok || addr != b.Addr() {
		t.Fatalf("aliased pointer cached at %q (%t), want %s", addr, ok, b.Addr())
	}
	if got, ok := a.rttAt(b.Addr()); !ok || got != want {
		t.Errorf("estimate at the owner's address after the alias: %+v (%t), want %+v", got, ok, want)
	}
	a.cfg.StabilizeEvery = time.Hour // the node is parked
	if !a.alive(b.Addr()) || bTap.got.Load() != 0 {
		t.Fatalf("owner heard within the period: %d pings after the alias, want none", bTap.got.Load())
	}
	// A heard note under the alias stamps the shared record and leaves
	// its estimate alone.
	a.note(wire.Contact{ID: 39000, Addr: b.Addr()}, true)
	if got, ok := a.rttAt(b.Addr()); !ok || got != want {
		t.Fatalf("estimate at the owner's address after a heard alias note: %+v (%t), want %+v", got, ok, want)
	}
}

// A heard contact that hearsay re-addresses starts unheard and
// unmeasured at the new address: the stamp and the estimate belong to
// the address that earned them, so Alive at the new address pings.
func TestHearsayReaddressStartsUnheard(t *testing.T) {
	space := id.NewSpace(16)
	nw := memnet.New(1)
	defer nw.CloseAll()
	a, _ := tappedNode(t, nw, space, 1000)
	b, _ := tappedNode(t, nw, space, 40000)
	c, cTap := tappedNode(t, nw, space, 20000)

	if _, err := a.call(b.Addr(), &wire.Message{Type: wire.TFindSucc, Target: 5}); err != nil {
		t.Fatal(err)
	}
	if h, ok := heardStamp(a, b.ID()); !ok || h == 0 {
		t.Fatalf("setup: b unheard (record %t, stamp %d)", ok, h)
	}
	a.noteContact(wire.Contact{ID: b.ID(), Addr: c.Addr()}) // hearsay
	if addr, ok := a.resolve(b.ID()); !ok || addr != c.Addr() {
		t.Fatalf("b cached at %q (%t), want %s", addr, ok, c.Addr())
	}
	if _, ok := a.rttAt(c.Addr()); ok {
		t.Fatal("the estimate followed the id to its new address")
	}
	a.cfg.StabilizeEvery = time.Hour // the node is parked
	if !a.alive(c.Addr()) || cTap.got.Load() != 1 {
		t.Fatalf("re-addressed contact: %d pings, want 1", cTap.got.Load())
	}
}

// suspectRing is an 8-node parked chord ring whose node 500 keeps three
// successors (9000, 17000, 26000) and races α = 3 with 40 ms probe
// attempts, one retry each. A lookup from 500 for key 30000 (owner
// 33000) seeds its frontier with exactly those three successors.
func suspectRing(t *testing.T) ([]*Node, *memnet.Network) {
	return parkedRing(t, id.NewSpace(16), benchIDs, func(cfg *Config) {
		cfg.SuccessorListLen = 3
		cfg.LookupAlpha = 3
		cfg.RPCTimeout = 40 * time.Millisecond
		cfg.RPCRetries = 1
	})
}

// A lookup whose α probes all time out — the successors are fine, the
// datagrams to them were lost — only makes them suspects. The node keeps
// its successor list, answers the next lookup with the right owner, and
// the next stabilize round confirms every suspect and evicts none.
// Evicting on the timeout collapsed the list to self, after which the
// node answered every lookup as a ring of one.
func TestLookupTimeoutsKeepSuccessorList(t *testing.T) {
	nodes, nw := suspectRing(t)
	a := nodes[0]
	want := []id.ID{9000, 17000, 26000}
	if got := contactIDs(a.Successors()); !slices.Equal(got, want) {
		t.Fatalf("setup: successors %v, want %v", got, want)
	}
	if got := contactIDs(a.rt.Candidates(30000, 3)); !slices.Equal(got, []id.ID{26000, 17000, 9000}) {
		t.Fatalf("setup: candidates %v, want the three successors", got)
	}
	for _, s := range a.Successors() {
		nw.DropNext(a.Addr(), s.Addr, 1+a.cfg.RPCRetries)
	}
	if _, _, err := a.Lookup(30000); err == nil {
		t.Fatal("the lookup succeeded with every probe dropped")
	}
	if got := contactIDs(a.Successors()); !slices.Equal(got, want) {
		t.Fatalf("successors after the timed-out lookup %v, want %v", got, want)
	}
	if owner, _, err := a.Lookup(30000); err != nil || owner.ID != 33000 {
		t.Fatalf("next lookup: owner %d, %v; want 33000", owner.ID, err)
	}
	a.stabilize()
	if got := contactIDs(a.Successors()); !slices.Equal(got, want) {
		t.Fatalf("successors after the confirming round %v, want %v", got, want)
	}
	if m := a.Metrics(); m.Evictions != 0 {
		t.Fatalf("%d suspects evicted, want 0", m.Evictions)
	}
}

// A suspect that fails its confirming ping leaves the routing state
// within one stabilize round.
func TestFailedSuspectDroppedWithinOneRound(t *testing.T) {
	nodes, _ := suspectRing(t)
	a, dead := nodes[0], nodes[3]
	if dead.ID() != 26000 {
		t.Fatalf("setup: node 3 is %d", dead.ID())
	}
	dead.Crash()
	a.Lookup(30000) // probes 26000 first, which times out
	if !slices.Contains(contactIDs(a.Successors()), dead.ID()) {
		t.Fatal("the timed-out probe evicted its contact before confirmation")
	}
	a.stabilize()
	if got := contactIDs(a.Successors()); slices.Contains(got, dead.ID()) {
		t.Fatalf("successors after one round %v still hold the dead suspect %d", got, dead.ID())
	}
	if m := a.Metrics(); m.Evictions != 1 {
		t.Fatalf("%d suspects evicted, want 1", m.Evictions)
	}
}

// A stabilize round whose get-pred to the successor loses every attempt
// — the successor is fine, the datagrams were lost — only makes it a
// suspect: the round's own check finds it alive and evicts nothing.
// Evicting on the failed get-pred would shorten the successor list on
// every such loss, and a ring of one is a few losses away.
func TestLostGetPredKeepsSuccessorList(t *testing.T) {
	nodes, nw := suspectRing(t)
	a := nodes[0]
	a.cfg.DisableHealProbe = true // no probe may re-teach a dropped successor
	want := []id.ID{9000, 17000, 26000}
	if got := contactIDs(a.Successors()); !slices.Equal(got, want) {
		t.Fatalf("setup: successors %v, want %v", got, want)
	}
	nw.DropNext(a.Addr(), nodes[1].Addr(), 1+a.cfg.RPCRetries)
	a.stabilize()
	if got := contactIDs(a.Successors()); !slices.Equal(got, want) {
		t.Fatalf("successors after the lost get-pred %v, want %v", got, want)
	}
	if m := a.Metrics(); m.Evictions != 0 {
		t.Fatalf("%d contacts evicted, want 0", m.Evictions)
	}
}

// The predecessor's check is the runtime's, once per round: a
// predecessor heard within the period — its notify is a request — costs
// no ping, one not heard costs one, and one that fails it is evicted,
// which clears the pointer.
func TestPredecessorCheckRidesNotify(t *testing.T) {
	nodes, _ := suspectRing(t)
	a, pred := nodes[0], nodes[len(nodes)-1]
	if p, ok := a.Predecessor(); !ok || p.ID != pred.ID() {
		t.Fatalf("setup: predecessor %v %t, want %d", p, ok, pred.ID())
	}
	a.cfg.StabilizeEvery = time.Hour
	a.checkLiveness()   // settles any suspect left from the set-up
	pred.rt.Stabilize() // notifies a
	m0 := a.Metrics()
	pings := func() uint64 { return a.Metrics().LivenessPings - m0.LivenessPings }

	a.checkLiveness()
	if got := pings(); got != 0 {
		t.Fatalf("heard predecessor: %d pings, want 0", got)
	}

	a.cfg.StabilizeEvery = time.Nanosecond // the notify is now stale
	a.checkLiveness()
	if got := pings(); got != 1 {
		t.Fatalf("unheard predecessor: %d pings, want 1", got)
	}
	if p, ok := a.Predecessor(); !ok || p.ID != pred.ID() {
		t.Fatalf("live predecessor lost: %v %t", p, ok)
	}

	pred.Crash()
	a.checkLiveness()
	if got := pings(); got != 2 {
		t.Fatalf("dead predecessor: %d pings in total, want 2", got)
	}
	if p, ok := a.Predecessor(); ok {
		t.Fatalf("failed check left predecessor %v in place", p)
	}
	if got := a.Metrics().Evictions - m0.Evictions; got != 1 {
		t.Fatalf("%d contacts evicted, want 1", got)
	}
}
