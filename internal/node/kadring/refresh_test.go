package kadring

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"peercache/internal/id"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// fakeHost wires Rings together in memory for white-box maintenance
// tests. Call dispatches to the addressed ring's HandleRequest exactly
// as the runtime's read loop would (answering the runtime-owned TPing
// itself, noting the requester only in an address cache the way
// node.noteContact does — geometries learn pingers from protocol
// answers, not from pings). Resolve fails the test outright: bucket
// refresh must not ride the runtime's lookup driver, whose
// done-at-self short-circuit is exactly what an empty bucket triggers.
// Alive stands in for the runtime's liveness record: an address in
// heard answers without I/O, any other costs one TPing Call, counted
// in pings, and a failed ping drops the peer at the address
// ("fake/<id>") from the caller, as the runtime's check does.
type fakeHost struct {
	t     testing.TB
	self  wire.Contact
	space id.Space
	net   map[string]*Ring
	heard map[string]bool
	pings map[string]int
	calls int
}

func (h *fakeHost) Self() wire.Contact { return h.self }
func (h *fakeHost) Space() id.Space    { return h.space }

func (h *fakeHost) Call(addr string, req *wire.Message) (*wire.Message, error) {
	h.calls++
	peer, ok := h.net[addr]
	if !ok {
		return nil, fmt.Errorf("fakehost: no listener at %s", addr)
	}
	req.From = h.self
	resp := &wire.Message{From: peer.self}
	if req.Type == wire.TPing {
		resp.Type = wire.TPong
		return resp, nil
	}
	if !peer.HandleRequest(req, resp) {
		return nil, fmt.Errorf("fakehost: node %d rejected request type %d", peer.self.ID, req.Type)
	}
	return resp, nil
}

func (h *fakeHost) Send(addr string, m *wire.Message) {}

func (h *fakeHost) Resolve(target id.ID) (wire.Contact, int, error) {
	h.t.Errorf("bucket maintenance called Host.Resolve(%d): refresh must walk FIND_NODE itself", target)
	return wire.Contact{}, 0, fmt.Errorf("fakehost: resolve unavailable")
}

func (h *fakeHost) Note(c wire.Contact) {}

func (h *fakeHost) Alive(addr string) bool {
	if h.heard[addr] {
		return true
	}
	h.pings[addr]++
	if _, err := h.Call(addr, &wire.Message{Type: wire.TPing}); err == nil {
		return true
	}
	var x id.ID
	if _, err := fmt.Sscanf(addr, "fake/%d", &x); err == nil {
		h.net[h.self.Addr].DropPeer(x)
	}
	return false
}

// newTestRing builds one Ring with 4-contact buckets on the shared
// in-memory net.
func newTestRing(t testing.TB, space id.Space, net map[string]*Ring, x id.ID) *Ring {
	t.Helper()
	return newTestRingK(t, space, net, x, 4)
}

// newTestRingK builds one Ring with k-contact buckets on the shared
// in-memory net.
func newTestRingK(t testing.TB, space id.Space, net map[string]*Ring, x id.ID, k int) *Ring {
	t.Helper()
	self := wire.Contact{ID: x, Addr: fmt.Sprintf("fake/%d", x)}
	h := &fakeHost{t: t, self: self, space: space, net: net, heard: map[string]bool{}, pings: map[string]int{}}
	rt, err := New(h, ring.Options{
		NeighborListLen: 4,
		BucketSize:      k,
		MaxLookupHops:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rt.(*Ring)
	net[self.Addr] = r
	return r
}

// TestRepairTableRefreshDiscoversUnknownRegion reproduces the soak
// harness's kademlia convergence failure in miniature: node A's bucket
// for C's subtree is empty, so A itself is XOR-closest to that whole
// subtree among everything A knows — any lookup A drives through the
// runtime short-circuits at done-self without a single RPC, and the
// bucket could never fill. The refresh walk must ask the network
// anyway: probing B (A's only contact) for a target in the subtree
// surfaces C from B's closest list, the walk probes C directly, and
// C's own answer — direct evidence, not hearsay — admits it.
func TestRepairTableRefreshDiscoversUnknownRegion(t *testing.T) {
	space := id.NewSpace(16)
	net := make(map[string]*Ring)
	// A = 0x0000 and B = 0x0001 share 15 leading bits; C = 0x4000
	// diverges from A at bit 1, so C belongs in A's bucket 1 and is the
	// subtree's only member.
	a := newTestRing(t, space, net, 0x0000)
	b := newTestRing(t, space, net, 0x0001)
	c := newTestRing(t, space, net, 0x4000)

	a.learn(b.self)
	b.learn(a.self)
	b.learn(c.self)
	c.learn(b.self)

	cBucket := a.bucketIndex(c.self.ID)
	if got := a.Buckets()[cBucket]; len(got) != 0 {
		t.Fatalf("precondition: A's bucket %d already holds %v", cBucket, got)
	}
	// The trap that motivates the walk: with the bucket empty, A claims
	// the whole subtree, so a driver that trusts NextHop stops here.
	// (an even probe: B = 0x0001 must not undercut A's distance on the
	// low bit)
	probe := space.SetBit(a.self.ID, 1, 1) | 0x00fe
	if hop, done := a.NextHop(probe); !done || hop.ID != a.self.ID {
		t.Fatalf("precondition: A's NextHop(%d) = %d done=%t, want done at self", probe, hop.ID, done)
	}

	// One full round-robin sweep visits every bucket once; the pass
	// over bucket 1 must run the refresh walk and admit C.
	for i := uint(0); i < space.Bits(); i++ {
		a.RepairTable()
	}
	found := false
	for _, e := range a.Buckets()[cBucket] {
		if e.ID == c.self.ID && e.Addr == c.self.Addr {
			found = true
		}
	}
	if !found {
		t.Fatalf("after a repair sweep, A's bucket %d = %v, want contact %d", cBucket, a.Buckets()[cBucket], c.self.ID)
	}
}

// TestRepairTableRefreshTopsUpUnderfullBucket pins the second half of
// the refresh contract: a bucket that is populated but short of
// bucketSize still refreshes after its LRU ping. Node A knows one of
// the two members of C's subtree; only a walk through that known
// member can surface the other, because once workload traffic stops
// nothing else ever mentions it.
func TestRepairTableRefreshTopsUpUnderfullBucket(t *testing.T) {
	space := id.NewSpace(16)
	net := make(map[string]*Ring)
	a := newTestRing(t, space, net, 0x0000)
	c1 := newTestRing(t, space, net, 0x4000)
	c2 := newTestRing(t, space, net, 0x4001)

	a.learn(c1.self)
	c1.learn(a.self)
	c1.learn(c2.self)
	c2.learn(c1.self)

	bucket := a.bucketIndex(c1.self.ID)
	if bucket != a.bucketIndex(c2.self.ID) {
		t.Fatalf("setup: %d and %d land in different buckets", c1.self.ID, c2.self.ID)
	}
	for i := uint(0); i < space.Bits(); i++ {
		a.RepairTable()
	}
	got := a.Buckets()[bucket]
	if len(got) != 2 {
		t.Fatalf("after a repair sweep, A's bucket %d = %v, want both %d and %d",
			bucket, got, c1.self.ID, c2.self.ID)
	}
}

// calls is the number of Calls r's host has made.
func (r *Ring) calls() int { return r.h.(*fakeHost).calls }

// holds reports whether r's buckets hold every one of xs.
func (r *Ring) holds(xs ...*Ring) bool {
	buckets := r.Buckets()
	for _, x := range xs {
		if !slices.Contains(buckets[r.bucketIndex(x.self.ID)], x.self) {
			return false
		}
	}
	return true
}

// TestRefreshWalkReadsOwnersAnswer: the owner of the refresh target,
// answering Done for itself, still lists the region members it knows
// nearest the target, and the walk probes and admits them. A walk that
// stopped at that answer learned only the owner, which the bucket
// already held.
func TestRefreshWalkReadsOwnersAnswer(t *testing.T) {
	space := id.NewSpace(16)
	net := make(map[string]*Ring)
	a := newTestRing(t, space, net, 0x0000)
	// All three share one leading bit with A: its bucket-1 region.
	c1 := newTestRing(t, space, net, 0x4000)
	c2 := newTestRing(t, space, net, 0x4100)
	c3 := newTestRing(t, space, net, 0x4200)
	a.learn(c1.self)
	for _, c := range []*Ring{c1, c2, c3} {
		for _, d := range []*Ring{a, c1, c2, c3} {
			if c != d {
				c.learn(d.self)
			}
		}
	}
	target := id.ID(0x4001) // c1 owns it
	if hop, done := c1.NextHop(target); !done || hop.ID != c1.self.ID {
		t.Fatalf("precondition: c1's NextHop(%d) = %d done=%t, want done at c1", target, hop.ID, done)
	}
	a.refreshWalk(target)
	if !a.holds(c1, c2, c3) {
		t.Fatalf("after the walk A's bucket 1 = %v, want %d, %d and %d",
			a.Buckets()[1], c1.self.ID, c2.self.ID, c3.self.ID)
	}
}

// TestRefreshWalkEmptyRegionCostsOneCall: a walk for a region with no
// members ends after its first answer. Here B, the contact nearest the
// target, knows F, nearer still but outside the region too; a walk that
// probed on would spend a second Call on F to learn nothing about the
// region.
func TestRefreshWalkEmptyRegionCostsOneCall(t *testing.T) {
	space := id.NewSpace(16)
	net := make(map[string]*Ring)
	a := newTestRing(t, space, net, 0x0000)
	b := newTestRing(t, space, net, 0x0001)
	f := newTestRing(t, space, net, 0x0ab0)
	a.learn(b.self)
	b.learn(a.self)
	b.learn(f.self)
	f.learn(b.self)
	target := id.ID(0x4abc) // bucket-1 region: nobody there
	if hop, done := b.NextHop(target); done || hop.ID != f.self.ID {
		t.Fatalf("precondition: B's NextHop(%d) = %d done=%t, want a redirect to F", target, hop.ID, done)
	}
	a.refreshWalk(target)
	if got := a.calls(); got != 1 {
		t.Fatalf("walk for an empty region made %d Calls, want 1", got)
	}
}

// TestRefreshWalkFullyKnownRegionCostsOneCall: when the bucket already
// holds every member of its region (and is short of bucketSize only
// because the region is small), the first answer names nobody new and
// the walk ends there.
func TestRefreshWalkFullyKnownRegionCostsOneCall(t *testing.T) {
	space := id.NewSpace(16)
	net := make(map[string]*Ring)
	a := newTestRing(t, space, net, 0x0000)
	c1 := newTestRing(t, space, net, 0x4000)
	c2 := newTestRing(t, space, net, 0x4001)
	for _, c := range []*Ring{c1, c2} {
		a.learn(c.self)
		c.learn(a.self)
	}
	c1.learn(c2.self)
	c2.learn(c1.self)
	for _, target := range []id.ID{0x4000, 0x4001, 0x4ffe} {
		before := a.calls()
		a.refreshWalk(target)
		if got := a.calls() - before; got != 1 {
			t.Errorf("walk for %#x over a fully known region made %d Calls, want 1", target, got)
		}
	}
}

// convergedNet builds n rings with k-contact buckets at random distinct
// ids, every one holding min(|region|, k) members of each bucket
// region, as the cluster oracle requires.
func convergedNet(tb testing.TB, space id.Space, n, k int, seed int64) []*Ring {
	net := make(map[string]*Ring)
	rng := rand.New(rand.NewSource(seed))
	rings := make([]*Ring, 0, n)
	for len(rings) < n {
		x := id.ID(rng.Uint64() & (space.Size() - 1))
		if _, dup := net[fmt.Sprintf("fake/%d", x)]; !dup {
			rings = append(rings, newTestRingK(tb, space, net, x, k))
		}
	}
	for _, r := range rings {
		for _, j := range rng.Perm(n) {
			r.learn(rings[j].self)
		}
	}
	return rings
}

// BenchmarkStabilizeRefreshKademlia prices RepairTable on a converged
// table at the repo benchmark's shape (64 nodes, 16-bit ids, 8-contact
// buckets): the Calls per run (rpcs/op, the LRU check's ping included)
// and the allocations. Each run maintains the next bucket round-robin,
// so b.N runs sweep the table b.N/16 times.
func BenchmarkStabilizeRefreshKademlia(b *testing.B) {
	rings := convergedNet(b, id.NewSpace(16), 64, 8, 1)
	r := rings[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RepairTable()
	}
	b.ReportMetric(float64(r.calls())/float64(b.N), "rpcs/op")
}
