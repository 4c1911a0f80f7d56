package node

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// White-box tests of the lookup race's hedge over memnet, with
// maintenance parked so that the only datagrams on a link are the
// lookup's own and memnet.DropNext loses exactly the ones named.

// hedgeRing is the parked 8-node ring with a lookup from nodes[0] whose
// frontier holds at least two candidates: the first probe's target and
// a fallback for the hedge.
func hedgeRing(t *testing.T) (a *Node, target id.ID, seed []string, drop func(to string, count int)) {
	t.Helper()
	space := id.NewSpace(16)
	nodes, nw := parkedRing(t, space, benchIDs, func(cfg *Config) {
		cfg.LookupAlpha = 3
		cfg.RPCTimeout = 200 * time.Millisecond
		cfg.RPCRetries = 2
	})
	// Node 500 reaches 60000 (owned by 61000) through 42000, its farthest
	// finger, with 33000 and 26000 as fallbacks; each of them redirects to
	// 50500, the owner's predecessor, so a fallback's chain can resolve
	// the key without the first probe's peer.
	a, target = nodes[0], id.ID(60000)
	cands := a.rt.Candidates(target, a.cfg.LookupAlpha)
	if len(cands) < 2 {
		t.Fatalf("lookup %d from %d has %d candidates, need a fallback", target, a.ID(), len(cands))
	}
	for _, c := range cands {
		seed = append(seed, c.Addr)
	}
	return a, target, seed, func(to string, count int) { nw.DropNext(a.Addr(), to, count) }
}

// settled waits for the lookup's losers to be gone: no inflight entry
// and no goroutine beyond the count before the lookup.
func settled(t *testing.T, a *Node, goroutines int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		stuck, now := a.tr.inflightLen(), runtime.NumGoroutine()
		if stuck == 0 && now <= goroutines {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d inflight entries, %d goroutines (was %d) after the lookup returned\n%s",
				stuck, now, goroutines, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// hedgeWait is the hedge delay the race arms for a probe to addr: the
// contact's RTO, capped at RPCTimeout/4.
func hedgeWait(a *Node, addr string) time.Duration {
	return a.lk.hedgeDelay(addr, a.cfg.RPCTimeout/4)
}

// forgetRTT drops the estimate at addr, leaving the contact cache and
// routing entries alone.
func forgetRTT(a *Node, addr string) {
	a.addrMu.Lock()
	a.peers[addr].rtt = rttEstimate{}
	a.addrMu.Unlock()
}

// checkHedged runs the lookup from a with the first datagram to
// seed[0] lost and checks that the hedge launched a second probe no
// sooner than wait and that no attempt timeout was waited out; the first
// probe is cancelled and leaves nothing behind.
func checkHedged(t *testing.T, a *Node, target id.ID, seed []string, drop func(string, int), wait time.Duration) {
	t.Helper()
	before := runtime.NumGoroutine()
	rpcs := a.Metrics().RPCs
	drop(seed[0], 1)
	start := time.Now()
	owner, _, err := a.FindSuccessor(target)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if owner.ID != 61000 {
		t.Fatalf("owner %d, want 61000", owner.ID)
	}
	if elapsed < wait || elapsed >= a.cfg.RPCTimeout {
		t.Fatalf("lookup took %v: want the hedge (%v) to have fired and no attempt timeout (%v) to have been waited out", elapsed, wait, a.cfg.RPCTimeout)
	}
	m := a.Metrics()
	if m.RPCs-rpcs < 2 {
		t.Fatalf("%d probes launched, want the first and the hedge's", m.RPCs-rpcs)
	}
	if m.Retries != 0 || m.Timeouts != 0 {
		t.Fatalf("retries %d, timeouts %d: the cancelled first probe must not count as either", m.Retries, m.Timeouts)
	}
	if !slices.Contains(contactIDs(a.Fingers()), 42000) {
		t.Fatal("the cancelled first probe retired its peer")
	}
	settled(t, a, before)
}

// The first probe's request is lost: once the probed contact's RTO has
// passed in silence the hedge launches a second probe at the fallback,
// whose chain resolves the key long before the first probe's attempt
// times out.
func TestRaceHedgeLaunchesSecondProbe(t *testing.T) {
	a, target, seed, drop := hedgeRing(t)
	e, ok := a.rttAt(seed[0])
	if !ok {
		t.Fatalf("no estimate for %s after the ring converged", seed[0])
	}
	wait := hedgeWait(a, seed[0])
	if rto := e.rto(); wait != min(rto, a.cfg.RPCTimeout/4) {
		t.Fatalf("hedge delay %v, want the RTO %v capped at %v", wait, rto, a.cfg.RPCTimeout/4)
	}
	checkHedged(t, a, target, seed, drop, wait)
}

// A first probe at a contact never measured hedges after RPCTimeout/4,
// the wait when no RTT is known.
func TestRaceHedgeWithoutEstimateWaitsQuarterTimeout(t *testing.T) {
	a, target, seed, drop := hedgeRing(t)
	forgetRTT(a, seed[0])
	if _, ok := a.rttAt(seed[0]); ok {
		t.Fatal("estimate survived forgetRTT")
	}
	if wait := hedgeWait(a, seed[0]); wait != a.cfg.RPCTimeout/4 {
		t.Fatalf("hedge delay %v without an estimate, want %v", wait, a.cfg.RPCTimeout/4)
	}
	checkHedged(t, a, target, seed, drop, a.cfg.RPCTimeout/4)
}

// The first probe targets a position-aliased aux contact, {key
// position, owner's address}: the estimator has nothing under the key
// position, but the probe goes to the owner's address, so the hedge
// waits the owner's RTO, not RPCTimeout/4.
func TestRaceHedgeOnAliasedAuxUsesOwnerEstimate(t *testing.T) {
	a, target, _, drop := hedgeRing(t)
	ownerAddr, ok := a.resolve(61000)
	if !ok {
		t.Fatal("the owner is not in the contact cache")
	}
	if err := a.Ping(ownerAddr); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.ContactRTT(target); ok {
		t.Fatal("the key position has an estimate of its own")
	}
	wait := hedgeWait(a, ownerAddr)
	if wait >= a.cfg.RPCTimeout/4 {
		t.Fatalf("owner's hedge delay %v is the cap %v: no estimate to hedge on", wait, a.cfg.RPCTimeout/4)
	}
	// The alias sits at the key itself: NextHop picks it, the race
	// probes it first, and the regular candidates are the fallbacks.
	a.rt.SetAux([]wire.Contact{{ID: target, Addr: ownerAddr}})
	if first := a.rt.Candidates(target, a.cfg.LookupAlpha)[0]; first.ID != target || first.Addr != ownerAddr {
		t.Fatalf("first candidate %v, want the alias {%d, %s}", first, target, ownerAddr)
	}
	before := runtime.NumGoroutine()
	drop(ownerAddr, 1)
	start := time.Now()
	owner, hops, err := a.FindSuccessor(target)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if owner.ID != 61000 || hops < 2 {
		t.Fatalf("owner %d in %d hops, want 61000 through a fallback's chain", owner.ID, hops)
	}
	if elapsed < wait || elapsed >= a.cfg.RPCTimeout/4 {
		t.Fatalf("lookup took %v: want the hedge to fire after the owner's RTO (%v), before the no-estimate wait (%v)", elapsed, wait, a.cfg.RPCTimeout/4)
	}
	settled(t, a, before)
}

// The first probe's request is lost and every fallback is a black hole:
// the hedge launches the fallbacks, nobody answers, and the first probe
// — still running beside them with its retry budget — times out,
// retries, and wins. The fallbacks, mid-retry themselves, are cancelled
// and leave nothing behind.
func TestRaceFirstProbeRetriesAndWins(t *testing.T) {
	a, target, seed, drop := hedgeRing(t)
	before := runtime.NumGoroutine()
	drop(seed[0], 1)
	for _, addr := range seed[1:] {
		drop(addr, 1000)
	}
	start := time.Now()
	owner, _, err := a.FindSuccessor(target)
	elapsed := time.Since(start)
	for _, addr := range seed[1:] {
		drop(addr, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	if owner.ID != 61000 {
		t.Fatalf("owner %d, want 61000", owner.ID)
	}
	if elapsed < a.cfg.RPCTimeout || elapsed >= 2*a.cfg.RPCTimeout {
		t.Fatalf("lookup took %v: want one attempt timeout (%v) and a prompt retry", elapsed, a.cfg.RPCTimeout)
	}
	if m := a.Metrics(); m.Retries < 1 {
		t.Fatalf("retries %d: the first probe must have retried", m.Retries)
	}
	settled(t, a, before)
}

// The allocation diet of the healthy path: a correlated round trip and
// a one-hop lookup on a three-node ring, both ends' read loops included.
// The ceilings are the measured counts; a change that raises one must
// say why.
func TestHealthyPathAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	nodes, _ := parkedRing(t, id.NewSpace(16), []uint64{100, 20000, 40000}, nil)
	a, b := nodes[0], nodes[1]
	if got := testing.AllocsPerRun(200, func() { a.Ping(b.Addr()) }); got > 7 {
		t.Errorf("Ping allocates %.0f objects, ceiling 7", got)
	}
	target := id.ID(30000) // owned by 40000, resolved by one probe of b
	if _, hops, err := a.Lookup(target); err != nil || hops != 1 {
		t.Fatalf("lookup %d: %d hops, %v; want one hop", target, hops, err)
	}
	if got := testing.AllocsPerRun(200, func() { a.Lookup(target) }); got > 20 {
		t.Errorf("a one-hop Lookup allocates %.0f objects, ceiling 20", got)
	}
}
