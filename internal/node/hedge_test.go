package node

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"peercache/internal/id"
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

// The first probe's request is lost: after RPCTimeout/4 of silence the
// hedge launches a second probe at the fallback, whose chain resolves
// the key long before the first probe's attempt times out; the first
// probe is cancelled and leaves nothing behind.
func TestRaceHedgeLaunchesSecondProbe(t *testing.T) {
	a, target, seed, drop := hedgeRing(t)
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
	stagger := a.cfg.RPCTimeout / 4
	if elapsed < stagger || elapsed >= a.cfg.RPCTimeout {
		t.Fatalf("lookup took %v: want the hedge (%v) to have fired and no attempt timeout (%v) to have been waited out", elapsed, stagger, a.cfg.RPCTimeout)
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
