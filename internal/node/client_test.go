// The anonymous Client end to end against memnet rings. External test
// package for the same reason as aux_evict_test.go: internal/cluster
// imports internal/node.
package node_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
	"peercache/internal/node/chordring"
	"peercache/internal/node/kadring"
	"peercache/internal/node/pastryring"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// clientGeometries pairs each geometry with its convergence oracle.
var clientGeometries = []struct {
	name    string
	factory ring.Factory
	wait    func(*cluster.Cluster) error
}{
	{"chord", chordring.New, func(c *cluster.Cluster) error { return c.WaitConverged(10 * time.Second) }},
	{"pastry", pastryring.New, func(c *cluster.Cluster) error { return c.WaitConvergedPastry(4, 10*time.Second) }},
	{"kademlia", kadring.New, func(c *cluster.Cluster) error {
		return c.WaitConvergedKademlia(kadring.DefaultBucketSize, 10*time.Second)
	}},
}

// clientRing boots ids in geometry g (mod, when non-nil, edits every
// node's config) and waits for g's convergence oracle.
func clientRing(t *testing.T, g int, ids []uint64, mod func(*node.Config)) (*cluster.Cluster, *memnet.Network) {
	t.Helper()
	nw := memnet.New(1)
	c, err := cluster.Start(id.NewSpace(16), nw, ids, func(_ int, cfg *node.Config) {
		cfg.NewRing = clientGeometries[g].factory
		if mod != nil {
			mod(cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := clientGeometries[g].wait(c); err != nil {
		t.Fatal(err)
	}
	return c, nw
}

// dial opens a client at mem/client with a 100ms attempt timeout.
func dial(t *testing.T, nw *memnet.Network, bootstrap string, mod func(*node.Config)) *node.Client {
	t.Helper()
	cfg := node.Config{
		Space:      id.NewSpace(16),
		Addr:       "mem/client",
		RPCTimeout: 100 * time.Millisecond,
		Listen:     func(addr string) (node.PacketConn, error) { return nw.Listen(addr) },
	}
	if mod != nil {
		mod(&cfg)
	}
	cl, err := node.Dial(bootstrap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// Put, both reads and Resolve on a ring of every geometry, and the
// anonymity invariant: a client never enters any member's routing state.
func TestClientPutGetAgainstRing(t *testing.T) {
	for g, geom := range clientGeometries {
		t.Run(geom.name, func(t *testing.T) {
			c, nw := clientRing(t, g, []uint64{100, 20000, 40000}, nil)
			cl := dial(t, nw, c.Addr(0), nil)
			reads := []struct {
				name string
				read func(id.ID) (node.GetResult, error)
			}{{"get", cl.Get}, {"find-value", cl.FindValue}}

			key := id.ID(19000) // owned by 20000 in every geometry
			res, err := cl.Put(key, []byte("hello"))
			if err != nil {
				t.Fatalf("put: %v", err)
			}
			if res.Owner.ID != 20000 || res.Version != 1 {
				t.Fatalf("put landed at %d v%d, want 20000 v1", res.Owner.ID, res.Version)
			}
			for _, r := range reads {
				got, err := r.read(key)
				if err != nil || !bytes.Equal(got.Value, []byte("hello")) || got.Version != 1 {
					t.Fatalf("%s: %q v%d, %v", r.name, got.Value, got.Version, err)
				}
			}
			// Overwrite bumps the version at the owner.
			if res, err = cl.Put(key, []byte("hello2")); err != nil || res.Version != 2 {
				t.Fatalf("overwrite: v%d, %v", res.Version, err)
			}
			if got, err := cl.Get(key); err != nil || !bytes.Equal(got.Value, []byte("hello2")) {
				t.Fatalf("get after overwrite: %q, %v", got.Value, err)
			}
			for _, r := range reads {
				if _, err := r.read(id.ID(50000)); !errors.Is(err, node.ErrNotFound) {
					t.Fatalf("%s of missing key: %v, want ErrNotFound", r.name, err)
				}
			}
			if _, err := cl.Put(key, make([]byte, wire.MaxValueLen+1)); !errors.Is(err, wire.ErrValueLen) {
				t.Fatalf("oversized put: %v, want ErrValueLen", err)
			}

			// Resolve alone works and counts its hops.
			owner, hops, err := cl.Resolve(key)
			if err != nil || owner.ID != 20000 || hops < 1 {
				t.Fatalf("resolve: %v in %d hops, %v", owner, hops, err)
			}

			for _, n := range c.Nodes {
				contacts := append(n.Successors(), n.Fingers()...)
				contacts = append(contacts, n.Aux()...)
				if p, ok := n.Predecessor(); ok {
					contacts = append(contacts, p)
				}
				for _, ct := range contacts {
					if ct.Addr == "mem/client" {
						t.Fatalf("node %d adopted the client as contact %v", n.ID(), ct)
					}
				}
			}
		})
	}
}

func TestClientAgainstDeadBootstrap(t *testing.T) {
	cl := dial(t, memnet.New(2), "mem/nobody", func(cfg *node.Config) {
		cfg.RPCTimeout, cfg.RPCRetries = 50*time.Millisecond, 1
	})
	if _, err := cl.FindValue(1); !errors.Is(err, node.ErrTimeout) {
		t.Fatalf("read via dead bootstrap: %v, want ErrTimeout", err)
	}
}

func TestClientConfigValidation(t *testing.T) {
	if _, err := node.Dial("x", node.Config{}); err == nil {
		t.Fatal("zero space accepted")
	}
	if _, err := node.Dial("", node.Config{Space: id.NewSpace(16)}); err == nil {
		t.Fatal("missing bootstrap accepted")
	}
}

// A lost GET response — not a lost request — must be absorbed by the
// RPC retry. The ring answers Resolve at the bootstrap (100's successor
// covers the key), so the owner's first datagram to the client is
// exactly the GET response; DropNext removes precisely that one and the
// retried RPC must come back with the same value.
func TestClientRetriesDroppedGetResponse(t *testing.T) {
	c, nw := clientRing(t, 0, []uint64{100, 20000, 40000}, nil)
	cl := dial(t, nw, c.Addr(0), nil)

	key := id.ID(10000) // owned by 20000
	if _, err := cl.Put(key, []byte("survives")); err != nil {
		t.Fatalf("put: %v", err)
	}

	dropped := nw.Stats().Dropped
	nw.DropNext("mem/20000", "mem/client", 1)
	got, err := cl.Get(key)
	if err != nil {
		t.Fatalf("get with dropped response: %v", err)
	}
	if !bytes.Equal(got.Value, []byte("survives")) || got.Version != 1 {
		t.Fatalf("get returned %q v%d, want \"survives\" v1", got.Value, got.Version)
	}
	// The drop must actually have hit — otherwise the retry path was
	// never exercised and the test is vacuous.
	if n := nw.Stats().Dropped; n != dropped+1 {
		t.Fatalf("dropped %d datagrams during the get, want exactly 1", n-dropped)
	}

	// The forced drop is one-shot: a subsequent get sails through with
	// no further loss.
	if _, err := cl.Get(key); err != nil {
		t.Fatalf("get after drop consumed: %v", err)
	}
	if n := nw.Stats().Dropped; n != dropped+1 {
		t.Fatalf("drop survived past its count: %d total", n-dropped)
	}
}

// The any-copy read accepts replica answers under the bounded-staleness
// contract: with the owner partitioned away, the walk reaches the
// replica holder and returns the last replicated version. The strict
// read refuses exactly that — it must fail rather than serve a copy
// whose freshness it cannot prove.
func TestClientReplicaReadAndOwnerRead(t *testing.T) {
	c, nw := clientRing(t, 0, []uint64{100, 20000, 40000}, nil)
	cl := dial(t, nw, c.Addr(0), nil)

	key := id.ID(10000) // owned by 20000, replicated to 40000
	if _, err := cl.Put(key, []byte("replicated")); err != nil {
		t.Fatalf("put: %v", err)
	}
	// Force the replica across and verify it landed before partitioning.
	c.Nodes[1].ReplicationRound()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := c.Nodes[2].Item(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never reached 40000")
		}
		time.Sleep(5 * time.Millisecond)
	}

	nw.Partition("owner-down", c.Addr(1))
	defer nw.Heal("owner-down")

	// Immediately after the partition the ring still resolves the dead
	// node as owner, so the strict read must fail rather than fall back
	// to a replica. (Given time the overlay heals and re-resolves
	// ownership — that recovery is TestKVReplicationSurvivesOwnerFailure's
	// territory; this window is exactly where the two reads differ.)
	if _, err := cl.Get(key); err == nil {
		t.Fatal("strict get succeeded with the owner partitioned")
	}

	got, err := cl.FindValue(key)
	if err != nil {
		t.Fatalf("any-copy read with owner partitioned: %v", err)
	}
	if !bytes.Equal(got.Value, []byte("replicated")) || got.Version != 1 {
		t.Fatalf("replica read returned %q v%d, want \"replicated\" v1", got.Value, got.Version)
	}
}

// A ring member with id 0 must be as reachable to an anonymous reader
// as any other. The reader's zero sender contact has id 0 too, and a
// find-value answer that filtered the querier's id from its contacts
// hid member 0 from every client. Member 0 holds the key alone
// (ReplicationFactor 1), and the walk starts at a node that does not
// know of it.
func TestClientAnyCopyReadReachesMemberZero(t *testing.T) {
	c, nw := clientRing(t, 0, []uint64{0, 20000, 40000}, func(cfg *node.Config) {
		cfg.ReplicationFactor = 1
	})
	cl := dial(t, nw, c.Addr(1), nil)

	key := id.ID(60000) // owned by 0
	res, err := cl.Put(key, []byte("zero"))
	if err != nil || res.Owner.ID != 0 {
		t.Fatalf("put landed at %d, %v; want member 0", res.Owner.ID, err)
	}
	got, err := cl.FindValue(key)
	if err != nil || !bytes.Equal(got.Value, []byte("zero")) {
		t.Fatalf("any-copy read: %q, %v", got.Value, err)
	}
}
