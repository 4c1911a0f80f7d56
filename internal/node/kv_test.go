package node

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// A ring of one owns everything: PUT and GET stay local, and a missing
// key is reported by the owner itself.
func TestKVSingleNode(t *testing.T) {
	space := id.NewSpace(16)
	n, err := Start(fastConfig(space, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	put, err := n.Put(7, []byte("hello"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if put.Owner.ID != n.ID() || put.Version != 1 || put.Hops != 0 {
		t.Fatalf("put result %+v, want owner self, version 1, 0 hops", put)
	}
	// Overwrite bumps the version.
	if put, err = n.Put(7, []byte("hello2")); err != nil || put.Version != 2 {
		t.Fatalf("overwrite: %+v, %v, want version 2", put, err)
	}
	got, err := n.Get(7)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got.Value, []byte("hello2")) || got.Version != 2 || !got.Local {
		t.Fatalf("get result %+v, want hello2/v2 served locally", got)
	}
	if _, err := n.Get(8); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get of missing key: %v, want ErrNotFound", err)
	}

	// Bounds: oversized values and out-of-space keys are rejected before
	// any network traffic.
	if _, err := n.Put(7, make([]byte, wire.MaxValueLen+1)); !errors.Is(err, wire.ErrValueLen) {
		t.Fatalf("oversized put: %v, want ErrValueLen", err)
	}
	if _, err := n.Put(id.ID(space.Size()), []byte("x")); err == nil {
		t.Fatal("put with out-of-space key succeeded")
	}
	if _, err := n.Get(id.ID(space.Size())); err == nil {
		t.Fatal("get with out-of-space key succeeded")
	}

	m := n.Metrics()
	if m.ItemsOwned != 1 || m.PutsIssued != 2 || m.GetsIssued != 2 || m.StoreHits != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// PUT and GET route across the ring to the key's owner; a repeated GET
// is served from the requester's item cache without network traffic.
func TestKVAcrossRingAndCache(t *testing.T) {
	space := id.NewSpace(16)
	nodes := startCluster(t, space, []uint64{100, 20000, 40000}, nil)
	waitConverged(t, space, nodes, 10*time.Second)
	a, b := nodes[0], nodes[1]

	key := id.ID(10000) // (100, 20000] -> owned by b
	put, err := a.Put(key, []byte("routed"))
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if put.Owner.ID != b.ID() {
		t.Fatalf("put owner %d, want %d", put.Owner.ID, b.ID())
	}
	if v, ver, ok := b.store.get(key); !ok || !bytes.Equal(v, []byte("routed")) || ver != 1 {
		t.Fatalf("owner store holds %q/%d/%t", v, ver, ok)
	}

	got, err := a.Get(key)
	if err != nil || got.Local || !bytes.Equal(got.Value, []byte("routed")) {
		t.Fatalf("first get %+v, %v: want remote hit", got, err)
	}
	got, err = a.Get(key)
	if err != nil || !got.Local || !bytes.Equal(got.Value, []byte("routed")) {
		t.Fatalf("second get %+v, %v: want cached local hit", got, err)
	}
	if m := a.Metrics(); m.CacheHits != 1 || m.ItemsCached != 1 {
		t.Fatalf("metrics after cached get: %+v", m)
	}
	// A local PUT invalidates the cached copy, so the next GET sees the
	// new value immediately.
	if _, err := a.Put(key, []byte("routed2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err = a.Get(key)
	if err != nil || got.Local || !bytes.Equal(got.Value, []byte("routed2")) {
		t.Fatalf("get after overwrite %+v, %v: want fresh remote value", got, err)
	}
	// >= rather than ==: a retried RPC (slow CI) is served twice.
	if m := b.Metrics(); m.PutsServed < 2 || m.GetsServed < 2 {
		t.Fatalf("owner served counters: %+v", m)
	}
}

// A full store refuses new keys and the refusal travels back over the
// wire as a failed PutAck.
func TestKVPutRejectedWhenStoreFull(t *testing.T) {
	space := id.NewSpace(16)
	nodes := startCluster(t, space, []uint64{100, 40000}, func(c *Config) {
		c.ReplicateEvery = -1 // keep the stores exactly as the PUTs leave them
	})
	waitConverged(t, space, nodes, 10*time.Second)
	a := nodes[0]
	owner := nodes[1].store // empty: replication is off and nothing was put
	owner.mu.Lock()
	owner.capacity = 1 // under the lock: the read loop is serving
	owner.mu.Unlock()

	if _, err := a.Put(1000, []byte("first")); err != nil { // owner: 40000
		t.Fatalf("first put: %v", err)
	}
	if _, err := a.Put(2000, []byte("second")); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("second put: %v, want ErrStoreFull", err)
	}
	// Overwrites of stored keys are always accepted.
	if put, err := a.Put(1000, []byte("first2")); err != nil || put.Version != 2 {
		t.Fatalf("overwrite on full store: %+v, %v", put, err)
	}
}

// Owned items are replicated to the successor, and when the owner dies
// the successor promotes its replica and serves the key.
func TestKVReplicationSurvivesOwnerFailure(t *testing.T) {
	space := id.NewSpace(16)
	nodes := startCluster(t, space, []uint64{100, 20000, 40000}, func(c *Config) {
		c.ReplicateEvery = 100 * time.Millisecond
	})
	waitConverged(t, space, nodes, 10*time.Second)
	a, b, c := nodes[0], nodes[1], nodes[2]

	key := id.ID(10000) // owned by b (20000); replica goes to c (40000)
	if _, err := a.Put(key, []byte("durable")); err != nil {
		t.Fatalf("put: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, ok := c.store.get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached successor: c metrics %+v", c.Metrics())
		}
		time.Sleep(20 * time.Millisecond)
	}

	b.Close()
	// The ring heals around the dead owner; c becomes responsible for
	// the key, promotes its replica, and answers a's GET.
	for {
		got, err := a.Get(key)
		if err == nil {
			if !bytes.Equal(got.Value, []byte("durable")) {
				t.Fatalf("recovered value %q", got.Value)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("key lost after owner failure: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Promotion needs c's predecessor pointer to heal around the dead
	// owner first, so it can lag the first successful GET (which a
	// replica answers just as well).
	for c.Metrics().Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("successor never promoted its replica: %+v", c.Metrics())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// A replica copy lags an overwrite until the owner's next anti-entropy
// round, and Get, the authoritative read, must not answer from it: a
// replica holder asks the owner. This is the stale read behind a chunk
// digest mismatch that survived the StrongGet escalation, when a chunk
// key landed on a preloaded key whose replica sat at the reading node.
// A held replica still answers when the owner cannot.
func TestGetOnReplicaHolderReadsOwner(t *testing.T) {
	nodes, nw := parkedRing(t, id.NewSpace(16), []uint64{100, 20000, 40000}, func(c *Config) {
		c.ItemCacheCapacity = -1
	})
	a, b, c := nodes[0], nodes[1], nodes[2]
	key := id.ID(30000) // owned by c; its replicas go to a and b
	if _, err := b.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	c.ReplicationRound()
	deadline := time.Now().Add(5 * time.Second)
	for { // the diff travels as one-way Replicate datagrams
		v, ver, ok := a.store.get(key)
		if ok && string(v) == "old" && ver == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica at %d: %q v%d %t, want old v1", a.ID(), v, ver, ok)
		}
		time.Sleep(time.Millisecond)
	}
	if put, err := b.Put(key, []byte("new")); err != nil || put.Version != 2 {
		t.Fatalf("overwrite: %+v, %v", put, err)
	}
	got, err := a.Get(key)
	if err != nil || string(got.Value) != "new" || got.Version != 2 {
		t.Fatalf("get at the replica holder: %q v%d, %v; want the owner's new v2", got.Value, got.Version, err)
	}
	// Cut off from every peer, the held copy is the best answer left.
	nw.Partition("reader", a.Addr())
	defer nw.Heal("reader")
	got, err = a.Get(key)
	if err != nil || string(got.Value) != "old" || !got.Local {
		t.Fatalf("get with no peer reachable: %+v, %v; want the held replica", got, err)
	}
}

// FindValue's probe frontier must rank the key's owner side early on
// chord's asymmetric clockwise metric. The metric measures routing
// progress toward the key, so the owner — sitting just past it — ranks
// as the farthest contact in the ring; ordered naively, the walk drains
// every predecessor (and the hop budget) before probing the one node
// that holds the value. With the hop budget clamped well below the node
// count, only owner-side ranking lets every lookup succeed.
func TestKVFindValueReachesOwnerWithinHopBudget(t *testing.T) {
	space := id.NewSpace(16)
	ids := []uint64{100, 2000, 7000, 11000, 16000, 21000, 25000, 29000,
		33000, 37000, 41000, 45000, 49000, 52000, 55000, 58000,
		60000, 61500, 63000, 64500}
	nodes := startCluster(t, space, ids, func(cfg *Config) {
		cfg.MaxLookupHops = 8 // log2(20) plus slack, far below n
		cfg.ItemCacheCapacity = -1
	})
	waitConverged(t, space, nodes, 30*time.Second)

	// One key per node range: each owner stores one value.
	for i, x := range ids {
		key := id.ID(x) // the owner's own id: owned by that node
		if _, err := nodes[(i+7)%len(nodes)].Put(key, []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", key, err)
		}
	}
	for i, x := range ids {
		key := id.ID(x)
		origin := nodes[(i+11)%len(nodes)]
		res, err := origin.FindValue(key)
		if err != nil {
			t.Fatalf("find-value %d from node %d: %v", key, origin.ID(), err)
		}
		if !bytes.Equal(res.Value, []byte{byte(i)}) {
			t.Fatalf("find-value %d: value %v, want %v", key, res.Value, []byte{byte(i)})
		}
	}
}

// A value-walk answerer advertises its successor neighborhood only
// when it actually sits in the key's neighborhood (its next hop for
// the key is terminal). A far node naming its own successors hands the
// walk overshoot contacts; the value-mode bidirectional metric ranks
// any contact just past the reader's own position as near-the-key, so
// a reader whose id sits shortly past the key would chase successor
// chains away from the owner until the hop budget burns out (seen
// live at n = 1024 before the next-hop gate existed).
func TestKVFindValueClosestGatesSuccessorAdvertisement(t *testing.T) {
	space := id.NewSpace(16)
	nodes := startCluster(t, space, []uint64{100, 20000, 40000}, nil)
	waitConverged(t, space, nodes, 10*time.Second)
	pred, far := nodes[0], nodes[2] // key 10000: owner 20000, predecessor 100

	key := id.ID(10000)
	m := &wire.Message{Key: key, From: wire.Contact{ID: 65535, Addr: "q"}}

	var resp wire.Message
	far.handleFindValue(m, &resp)
	if len(resp.Closest) == 0 {
		t.Fatalf("far node %d returned no contacts for key %d", far.ID(), key)
	}
	gapToKey := space.Gap(far.ID(), key)
	for _, c := range resp.Closest {
		if g := space.Gap(far.ID(), c.ID); g == 0 || g > gapToKey {
			t.Fatalf("far node %d advertised overshoot contact %d for key %d (closest %v)",
				far.ID(), c.ID, key, resp.Closest)
		}
	}

	resp = wire.Message{}
	pred.handleFindValue(m, &resp)
	named := make(map[id.ID]bool, len(resp.Closest))
	for _, c := range resp.Closest {
		named[c.ID] = true
	}
	if !named[20000] || !named[40000] {
		t.Fatalf("predecessor %d must name the key's owner and replica target, got %v",
			pred.ID(), resp.Closest)
	}
}
