package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
	"peercache/internal/randx"
)

// TestClusterPartitionHealAuxGain is the acceptance test for the
// transport-agnostic runtime: 56 nodes in one process over memnet —
// far past what socket-per-node loopback tests could reach — under
// duplication and latency jitter, surviving a 12-node partition and
// heal, and still delivering the paper's core claim. Phases:
//
//  1. Boot and converge to the oracle ring.
//  2. Raise a named partition isolating 12 nodes; wait until the
//     minority provably diverges into its own subring (every minority
//     successor pointer is the minority-oracle successor).
//  3. Heal; the runtime's heal probe must re-merge both rings back to
//     the full-oracle successor/predecessor/finger state.
//  4. Drive a per-source Zipf lookup stream twice — core-only while
//     the frequency observers accumulate, then after every node
//     recomputes its auxiliary set (eq. 1) from what it observed — and
//     require the with-aux mean hop count strictly below core-only.
//
// Everything is seeded; the whole test runs race-enabled in well under
// the two-minute budget.
func TestClusterPartitionHealAuxGain(t *testing.T) {
	if testing.Short() {
		t.Skip("56-node in-process cluster test")
	}
	const (
		numNodes  = 56
		numCut    = 12 // partitioned minority
		k         = 8  // auxiliary budget
		alpha     = 1.2
		perSource = 50
		seed      = 17
	)
	space := id.NewSpace(16)
	rng := rand.New(rand.NewSource(seed))
	ids := randx.UniqueIDs(rng, numNodes, space.Size())

	nw := memnet.New(seed)
	nw.SetDefaultPolicy(memnet.LinkPolicy{
		Dup:      0.02,
		MaxDelay: time.Millisecond, // jitter ⇒ reordering
	})

	cl, err := Start(space, nw, ids, func(i int, cfg *node.Config) {
		cfg.AuxCount = k
		cfg.AuxEvery = 0 // recomputation driven explicitly between passes
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitConverged(60 * time.Second); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}
	t.Log("phase 1: converged to oracle ring")

	// Phase 2: cut the first numCut nodes off. The two sides must each
	// reorganize into a self-consistent subring — the divergence that
	// makes healing non-trivial, because no routing-state pointer
	// crosses the boundary anymore.
	cut := make([]int, numCut)
	minoritySet := make(map[id.ID]bool, numCut)
	for i := range cut {
		cut[i] = i
		minoritySet[cl.Nodes[i].ID()] = true
	}
	minorityRing := make([]id.ID, 0, numCut)
	for x := range minoritySet {
		minorityRing = append(minorityRing, x)
	}
	sortIDs(minorityRing)
	nw.Partition("split", cl.Addrs(cut...)...)

	minoritySucc := func() error {
		for _, i := range cut {
			n := cl.Nodes[i]
			want := ringSuccessor(minorityRing, n.ID())
			if got := n.Successor(); got.ID != want {
				return fmt.Errorf("minority node %d successor %d, want %d", n.ID(), got.ID, want)
			}
		}
		return nil
	}
	deadline := time.Now().Add(45 * time.Second)
	for {
		if err := minoritySucc(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("minority never formed its own subring: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Log("phase 2: minority diverged into its own subring")

	// Phase 3: heal. Only the heal probe can re-merge the rings —
	// stabilize and notify never leave the current routing state — so
	// full reconvergence to the oracle is the probe's acceptance test.
	nw.Heal("split")
	if err := cl.WaitConverged(60 * time.Second); err != nil {
		t.Fatalf("post-heal reconvergence: %v", err)
	}
	t.Log("phase 3: healed and reconverged to oracle ring")

	// Phase 4: per-source Zipf destination mix over the other nodes,
	// with a node-specific popularity ranking.
	alias := randx.NewAlias(randx.ZipfWeights(numNodes-1, alpha))
	destsByRank := make([][]id.ID, numNodes)
	for i := range cl.Nodes {
		others := make([]id.ID, 0, numNodes-1)
		for j, n := range cl.Nodes {
			if j != i {
				others = append(others, n.ID())
			}
		}
		perm := rng.Perm(len(others))
		ranked := make([]id.ID, len(others))
		for r, p := range perm {
			ranked[r] = others[p]
		}
		destsByRank[i] = ranked
	}
	type query struct {
		src    int
		target id.ID
	}
	stream := make([]query, numNodes*perSource)
	for q := range stream {
		src := q % numNodes
		stream[q] = query{src: src, target: destsByRank[src][alias.Sample(rng)]}
	}
	runStream := func(label string) float64 {
		total := 0
		for _, q := range stream {
			owner, hops, err := cl.Nodes[q.src].Lookup(q.target)
			if err != nil {
				t.Fatalf("%s: lookup %d from node %d: %v", label, q.target, cl.Nodes[q.src].ID(), err)
			}
			if owner.ID != q.target {
				t.Fatalf("%s: lookup %d resolved to %d", label, q.target, owner.ID)
			}
			total += hops
		}
		return float64(total) / float64(len(stream))
	}

	coreOnly := runStream("core-only")
	for _, n := range cl.Nodes {
		if len(n.Aux()) != 0 {
			t.Fatalf("node %d has auxiliary neighbors before any recompute", n.ID())
		}
	}
	installed := 0
	for _, n := range cl.Nodes {
		got, err := n.RecomputeAux()
		if err != nil {
			t.Fatalf("recompute aux at node %d: %v", n.ID(), err)
		}
		installed += got
	}
	if installed == 0 {
		t.Fatal("no node installed any auxiliary neighbor")
	}
	withAux := runStream("with-aux")

	s := nw.Stats()
	t.Logf("mean hops: core-only %.4f, with k=%d aux %.4f (%d nodes, %d queries, %d aux installed)",
		coreOnly, k, withAux, numNodes, len(stream), installed)
	t.Logf("memnet: %+v", s)
	if !(withAux < coreOnly) {
		t.Fatalf("auxiliary neighbors did not reduce mean hops: core-only %.4f, with-aux %.4f", coreOnly, withAux)
	}
	// The fault machinery must actually have been exercised.
	if s.Blocked == 0 {
		t.Fatal("partition blocked no datagrams")
	}
	if s.Duplicated == 0 {
		t.Fatal("duplication policy never fired")
	}
	for _, n := range cl.Nodes {
		if m := n.Metrics(); m.DecodeErrors != 0 {
			t.Errorf("node %d: %d decode errors", n.ID(), m.DecodeErrors)
		}
	}
}

// TestClusterLookupsUnderLoss runs a smaller overlay on a lossy network
// and checks the retry policy absorbs the loss: almost every lookup
// still resolves to the correct oracle owner, and once the loss lifts
// the ring converges back to the oracle.
func TestClusterLookupsUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node in-process cluster test")
	}
	const numNodes = 16
	space := id.NewSpace(16)
	rng := rand.New(rand.NewSource(29))
	ids := randx.UniqueIDs(rng, numNodes, space.Size())

	nw := memnet.New(29)
	cl, err := Start(space, nw, ids, func(i int, cfg *node.Config) {
		cfg.RPCRetries = 3
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitConverged(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Loss switches on only after the ring is up, so convergence and
	// the loss experiment stay independent.
	nw.SetDefaultPolicy(memnet.LinkPolicy{Drop: 0.03})

	ring := cl.Ring()
	const lookups = 400
	failed := 0
	for q := 0; q < lookups; q++ {
		src := cl.Nodes[q%numNodes]
		key := id.ID(rng.Uint64() & (space.Size() - 1))
		owner, _, err := src.Lookup(key)
		if err != nil {
			failed++ // a full retry budget lost to drops; rare but legal
			continue
		}
		if owner.ID != Owner(ring, key) {
			t.Fatalf("lookup %d: owner %d, want %d", key, owner.ID, Owner(ring, key))
		}
	}
	if failed > lookups/50 {
		t.Fatalf("%d/%d lookups failed under 3%% loss with 4 attempts", failed, lookups)
	}
	if s := nw.Stats(); s.Dropped == 0 {
		t.Fatalf("loss policy never fired: %+v", s)
	}
	// Loss ends; whatever the dropped maintenance legs cost (successors
	// or fingers given up as unreachable), the ring must return to
	// exactly the oracle state.
	nw.SetDefaultPolicy(memnet.LinkPolicy{})
	if err := cl.WaitConverged(30 * time.Second); err != nil {
		t.Fatalf("after loss: %v", err)
	}
}

// TestClusterConvergesAfterMessageLoss builds the ring, not just
// queries it, under loss: the joins and the first stabilize rounds run
// lossy, and once the network calms down the ring must converge to
// exactly the oracle state. Every lost leg surfaces as an RPC timeout,
// the caller treats the peer as unreachable (dropping successors,
// giving up fingers, retrying the join walk), and stabilize and
// fix-fingers must repair all of that damage.
func TestClusterConvergesAfterMessageLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node in-process cluster test")
	}
	const numNodes = 16
	space := id.NewSpace(16)
	ids := randx.UniqueIDs(rand.New(rand.NewSource(21)), numNodes, space.Size())

	nw := memnet.New(21)
	nw.SetDefaultPolicy(memnet.LinkPolicy{Drop: 0.05})
	cl, err := Start(space, nw, ids, func(i int, cfg *node.Config) {
		cfg.RPCRetries = 3
	})
	if err != nil {
		t.Fatalf("joins under loss: %v", err)
	}
	defer cl.Close()
	time.Sleep(500 * time.Millisecond) // lossy maintenance after the last join
	if s := nw.Stats(); s.Dropped == 0 {
		t.Fatalf("loss policy never fired: %+v", s)
	}

	nw.SetDefaultPolicy(memnet.LinkPolicy{})
	if err := cl.WaitConverged(30 * time.Second); err != nil {
		t.Fatalf("after loss: %v", err)
	}
}

func sortIDs(xs []id.ID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ringSuccessor returns x's successor in the sorted ring.
func ringSuccessor(ring []id.ID, x id.ID) id.ID {
	for i, y := range ring {
		if y == x {
			return ring[(i+1)%len(ring)]
		}
	}
	return x
}
