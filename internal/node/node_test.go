package node

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/randx"
	"peercache/internal/wire"
)

// fastConfig returns timings tuned for loopback tests: tight maintenance
// periods, short RPC timeouts.
func fastConfig(space id.Space, x id.ID) Config {
	return Config{
		Space:           space,
		ID:              x,
		Addr:            "127.0.0.1:0",
		StabilizeEvery:  50 * time.Millisecond,
		FixFingersEvery: 10 * time.Millisecond,
		RPCTimeout:      250 * time.Millisecond,
		RPCRetries:      2,
	}
}

// A wildcard bind reports an unspecified address, which would tell
// every peer to reach this node at the peer's own host: Start refuses to
// advertise it unless Config.Advertise names a routable address.
func TestStartRefusesUnspecifiedAdvertise(t *testing.T) {
	space := id.NewSpace(16)
	for _, addr := range []string{"0.0.0.0:0", ":0"} {
		n, err := Start(Config{Space: space, ID: 1, Addr: addr, Scheduler: &parked{}})
		if err == nil {
			n.Close()
			t.Fatalf("Start on %q advertised %q", addr, n.Addr())
		}
		if !strings.Contains(err.Error(), "Config.Advertise") {
			t.Fatalf("Start on %q: %v, want an error naming Config.Advertise", addr, err)
		}
		n, err = Start(Config{Space: space, ID: 1, Addr: addr, Advertise: "127.0.0.1:7000", Scheduler: &parked{}})
		if err != nil {
			t.Fatalf("Start on %q with Advertise set: %v", addr, err)
		}
		if n.Addr() != "127.0.0.1:7000" {
			t.Fatalf("advertised %q, want the configured 127.0.0.1:7000", n.Addr())
		}
		n.Close()
	}
}

// startCluster boots one node per id on loopback, joining everyone
// through the first. Cleanup closes all of them.
func startCluster(t *testing.T, space id.Space, ids []uint64, mod func(*Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, 0, len(ids))
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	for i, x := range ids {
		cfg := fastConfig(space, id.ID(x))
		if mod != nil {
			mod(&cfg)
		}
		n, err := Start(cfg)
		if err != nil {
			t.Fatalf("start node %d: %v", x, err)
		}
		nodes = append(nodes, n)
		if i > 0 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				t.Fatalf("join node %d: %v", x, err)
			}
		}
	}
	return nodes
}

// expectedFingers computes the converged finger list of x over the given
// sorted ring, with the protocol's interval rule and consecutive-dup
// elision (the same derivation as cluster.ExpectedFingers).
func expectedFingers(space id.Space, ring []id.ID, x id.ID) []id.ID {
	var out []id.ID
	for i := uint(0); i < space.Bits(); i++ {
		var best id.ID
		bestGap := uint64(0)
		found := false
		for _, y := range ring {
			g := space.Gap(x, y)
			if g > uint64(1)<<i && g <= uint64(1)<<(i+1) {
				if !found || g < bestGap {
					best, bestGap, found = y, g, true
				}
			}
		}
		if found && (len(out) == 0 || out[len(out)-1] != best) {
			out = append(out, best)
		}
	}
	return out
}

func contactIDs(cs []wire.Contact) []id.ID {
	out := make([]id.ID, len(cs))
	for i, c := range cs {
		out[i] = c.ID
	}
	return out
}

func idsEqual(a, b []id.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// waitConverged polls until every node's successor, predecessor, and
// finger table match the ideal ring, or the deadline passes.
func waitConverged(t *testing.T, space id.Space, nodes []*Node, deadline time.Duration) {
	t.Helper()
	ring := make([]id.ID, len(nodes))
	for i, n := range nodes {
		ring[i] = n.ID()
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	pos := make(map[id.ID]int, len(ring))
	for i, x := range ring {
		pos[x] = i
	}
	check := func() error {
		for _, n := range nodes {
			i := pos[n.ID()]
			wantSucc := ring[(i+1)%len(ring)]
			wantPred := ring[(i+len(ring)-1)%len(ring)]
			if got := n.Successor(); got.ID != wantSucc {
				return fmt.Errorf("node %d successor %d, want %d", n.ID(), got.ID, wantSucc)
			}
			if p, ok := n.Predecessor(); !ok || p.ID != wantPred {
				return fmt.Errorf("node %d predecessor %v (%t), want %d", n.ID(), p.ID, ok, wantPred)
			}
			if got, want := contactIDs(n.Fingers()), expectedFingers(space, ring, n.ID()); !idsEqual(got, want) {
				return fmt.Errorf("node %d fingers %v, want %v", n.ID(), got, want)
			}
		}
		return nil
	}
	var last error
	for end := time.Now().Add(deadline); time.Now().Before(end); {
		if last = check(); last == nil {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("cluster did not converge: %v", last)
}

func TestTwoNodesFormRing(t *testing.T) {
	space := id.NewSpace(16)
	nodes := startCluster(t, space, []uint64{100, 40000}, nil)
	waitConverged(t, space, nodes, 10*time.Second)

	a, b := nodes[0], nodes[1]
	// Each resolves arbitrary keys to the correct owner.
	owner, _, err := a.Lookup(id.ID(200)) // (100, 40000] -> 40000
	if err != nil || owner.ID != b.ID() {
		t.Fatalf("lookup 200 from a: %v %v", owner, err)
	}
	owner, _, err = b.Lookup(id.ID(50000)) // wraps -> 100
	if err != nil || owner.ID != a.ID() {
		t.Fatalf("lookup 50000 from b: %v %v", owner, err)
	}
	// A node id resolves to that node itself.
	owner, _, err = a.Lookup(b.ID())
	if err != nil || owner.ID != b.ID() {
		t.Fatalf("lookup %d from a: %v %v", b.ID(), owner, err)
	}
}

func TestRingConvergesAndLooksUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node loopback test")
	}
	space := id.NewSpace(16)
	rng := rand.New(rand.NewSource(11))
	ids := randx.UniqueIDs(rng, 8, space.Size())
	nodes := startCluster(t, space, ids, nil)
	waitConverged(t, space, nodes, 30*time.Second)

	// Every node resolves every key deterministically to the ring
	// owner.
	ring := make([]id.ID, len(ids))
	for i, x := range ids {
		ring[i] = id.ID(x)
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	// ownerOf is the first ring id clockwise from k, inclusive.
	ownerOf := func(k id.ID) id.ID {
		for _, x := range ring {
			if uint64(x) >= uint64(k) {
				return x
			}
		}
		return ring[0]
	}
	for _, n := range nodes {
		for q := 0; q < 20; q++ {
			k := id.ID(rng.Uint64() & (space.Size() - 1))
			owner, hops, err := n.Lookup(k)
			if err != nil {
				t.Fatalf("lookup %d from %d: %v", k, n.ID(), err)
			}
			if owner.ID != ownerOf(k) {
				t.Fatalf("lookup %d from %d: owner %d, want %d", k, n.ID(), owner.ID, ownerOf(k))
			}
			if hops > 8 {
				t.Fatalf("lookup %d from %d took %d hops in an 8-node ring", k, n.ID(), hops)
			}
		}
	}
}

// An RPC to a port nobody listens on must exhaust its retries and
// surface ErrTimeout, with the retry counter reflecting every attempt.
func TestRPCTimeoutAndRetry(t *testing.T) {
	space := id.NewSpace(8)
	cfg := fastConfig(space, 1)
	cfg.RPCTimeout = 60 * time.Millisecond
	cfg.RPCRetries = 2
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Reserve a port and close it so nothing answers there.
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	dead := c.LocalAddr().String()
	c.Close()

	start := time.Now()
	_, err = n.call(dead, &wire.Message{Type: wire.TPing})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 3*cfg.RPCTimeout {
		t.Fatalf("gave up after %v, want >= %v (3 attempts)", elapsed, 3*cfg.RPCTimeout)
	}
	m := n.Metrics()
	if m.Retries < 2 || m.Timeouts < 3 {
		t.Fatalf("metrics retries=%d timeouts=%d, want >=2/>=3", m.Retries, m.Timeouts)
	}

	// Join through the dead address reports the failure.
	if err := n.Join(dead); err == nil {
		t.Fatal("join via dead bootstrap succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := Start(Config{Space: id.NewSpace(8), ID: 1 << 9}); err == nil {
		t.Fatal("out-of-space id accepted")
	}
	if _, err := Start(Config{Space: id.NewSpace(8), ID: 1, AuxCount: -1}); err == nil {
		t.Fatal("negative aux count accepted")
	}
	if _, err := Start(Config{Space: id.NewSpace(8), ID: 1, SuccessorListLen: wire.MaxSuccs + 1}); err == nil {
		t.Fatal("oversized successor list accepted")
	}
}

// A node id that is already taken must be rejected at join time.
func TestJoinDetectsDuplicateID(t *testing.T) {
	space := id.NewSpace(16)
	nodes := startCluster(t, space, []uint64{7, 9}, nil)
	waitConverged(t, space, nodes, 10*time.Second)
	dup, err := Start(fastConfig(space, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	if err := dup.Join(nodes[1].Addr()); err == nil {
		t.Fatal("duplicate id joined successfully")
	}
}
