package kadring

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// candidatesRef is Candidates as it was before the one-pass top-k:
// collect every bucket and aux contact behind a seen-set, sort by XOR
// distance, truncate. Kept as the reference the live implementation
// must match exactly.
func (r *Ring) candidatesRef(target id.ID, max int) []wire.Contact {
	hop, done := r.NextHop(target)
	out := []wire.Contact{hop}
	if done || max <= 1 {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[id.ID]bool{hop.ID: true, r.self.ID: true}
	var rest []wire.Contact
	visit := func(c wire.Contact) {
		if c.IsZero() || seen[c.ID] {
			return
		}
		seen[c.ID] = true
		rest = append(rest, c)
	}
	r.eachContact(visit)
	for _, a := range r.Aux() {
		visit(a)
	}
	sort.Slice(rest, func(i, j int) bool {
		return r.xorDist(rest[i].ID, target) < r.xorDist(rest[j].ID, target)
	})
	for _, c := range rest {
		if len(out) >= max {
			break
		}
		out = append(out, c)
	}
	return out
}

// randomRing fills a Ring's buckets and aux from a small id pool, so
// buckets and aux name the same ids repeatedly — under different
// addresses, as an owner-aliased aux entry does — and some slots hold
// the node's own id. Entries land in arbitrary buckets: Candidates and
// NextHop walk whatever the table holds.
func randomRing(rng *rand.Rand, space id.Space) *Ring {
	mask := space.Size() - 1
	pool := make([]id.ID, 24)
	for i := range pool {
		pool[i] = id.ID(rng.Uint64() & mask)
	}
	pick := func(tag string) wire.Contact {
		x := pool[rng.Intn(len(pool))]
		return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%s/%d", tag, x)}
	}
	r := &Ring{
		space:      space,
		self:       wire.Contact{ID: pool[0], Addr: "mem/self"},
		bucketSize: 8,
		buckets:    make([][]wire.Contact, space.Bits()),
		repl:       make([][]wire.Contact, space.Bits()),
	}
	for i := range r.buckets {
		for j := 0; j < rng.Intn(4); j++ {
			r.buckets[i] = append(r.buckets[i], pick(fmt.Sprintf("b%d", i)))
		}
	}
	var aux []wire.Contact
	for i := 0; i < rng.Intn(9); i++ {
		aux = append(aux, pick("aux"))
	}
	r.SetAux(aux)
	return r
}

// TestCandidatesMatchesReference pins the one-pass Candidates to the
// map-and-sort reference on random tables: same contacts, same order,
// same addresses, for every max the runtime uses.
func TestCandidatesMatchesReference(t *testing.T) {
	space := id.NewSpace(16)
	multi := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randomRing(rng, space)
		for q := 0; q < 20; q++ {
			target := id.ID(rng.Uint64() & (space.Size() - 1))
			for _, max := range []int{1, 3, 16} {
				got, want := r.Candidates(target, max), r.candidatesRef(target, max)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d target %d max %d:\n got  %v\n want %v", seed, target, max, got, want)
				}
				if len(want) > 2 {
					multi++
				}
			}
		}
	}
	if multi < 1000 {
		t.Fatalf("only %d of the compared answers held fallbacks; the tables are too thin to pin the order", multi)
	}
}

// closestRef is closestLocked as it was before the bounded selection:
// collect the table, sort by XOR distance, truncate, sort by id. Kept
// as the reference the live implementation must match exactly.
func (r *Ring) closestRef(target id.ID, requester id.ID) []wire.Contact {
	var all []wire.Contact
	r.eachContact(func(c wire.Contact) {
		if c.ID != requester && c.Addr != "" {
			all = append(all, c)
		}
	})
	sort.Slice(all, func(i, j int) bool {
		return r.xorDist(all[i].ID, target) < r.xorDist(all[j].ID, target)
	})
	if len(all) > wire.MaxClosest {
		all = all[:wire.MaxClosest]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// randomTable fills a Ring's buckets as learn does — each id at most
// once, in the bucket of its XOR distance, up to the bucket size — with
// between none and a few hundred random peers.
func randomTable(rng *rand.Rand, space id.Space) *Ring {
	mask := space.Size() - 1
	self := id.ID(rng.Uint64() & mask)
	r := &Ring{
		space:      space,
		self:       wire.Contact{ID: self, Addr: "mem/self"},
		bucketSize: 1 + rng.Intn(20),
		buckets:    make([][]wire.Contact, space.Bits()),
		repl:       make([][]wire.Contact, space.Bits()),
	}
	seen := map[id.ID]bool{self: true}
	for n := rng.Intn(300); n > 0; n-- {
		x := id.ID(rng.Uint64() & mask)
		if seen[x] {
			continue
		}
		seen[x] = true
		if i := r.bucketIndex(x); len(r.buckets[i]) < r.bucketSize {
			r.buckets[i] = append(r.buckets[i], wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)})
		}
	}
	return r
}

// TestClosestMatchesReference pins the bounded closestLocked to the
// sort-everything reference on random tables: same contacts, same
// (ascending id) order, same addresses, with the requester a table
// member or a stranger.
func TestClosestMatchesReference(t *testing.T) {
	space := id.NewSpace(16)
	full := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randomTable(rng, space)
		var members []id.ID
		r.eachContact(func(c wire.Contact) { members = append(members, c.ID) })
		for q := 0; q < 20; q++ {
			target := id.ID(rng.Uint64() & (space.Size() - 1))
			requester := id.ID(rng.Uint64() & (space.Size() - 1))
			if len(members) > 0 && rng.Intn(2) == 0 {
				requester = members[rng.Intn(len(members))]
			}
			got, want := r.closestLocked(target, requester), r.closestRef(target, requester)
			if len(got) != len(want) || (len(want) > 0 && !slices.Equal(got, want)) {
				t.Fatalf("seed %d target %d requester %d:\n got  %v\n want %v", seed, target, requester, got, want)
			}
			if len(want) == wire.MaxClosest {
				full++
			}
		}
	}
	if full < 1000 {
		t.Fatalf("only %d of the compared answers were full; the tables are too thin to pin the selection", full)
	}
}

// BenchmarkClosestKademlia prices the closest list of one FindNode
// answer on the read loop, over the 63-peer table of the benchmark's
// 64-node kademlia overlay.
func BenchmarkClosestKademlia(b *testing.B) {
	space := id.NewSpace(16)
	rng := rand.New(rand.NewSource(1))
	r := &Ring{
		space:      space,
		self:       wire.Contact{ID: 0x5a5a, Addr: "mem/self"},
		bucketSize: 8,
		buckets:    make([][]wire.Contact, space.Bits()),
		repl:       make([][]wire.Contact, space.Bits()),
	}
	for n := 0; n < 63; {
		x := id.ID(rng.Uint64() & (space.Size() - 1))
		if x == r.self.ID {
			continue
		}
		n++
		if i := r.bucketIndex(x); len(r.buckets[i]) < r.bucketSize {
			r.buckets[i] = append(r.buckets[i], wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)})
		}
	}
	targets := make([]id.ID, 256)
	for i := range targets {
		targets[i] = id.ID(rng.Uint64() & (space.Size() - 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.closestLocked(targets[i%len(targets)], 1)
	}
}

func BenchmarkCandidatesKademlia(b *testing.B) {
	space := id.NewSpace(16)
	rng := rand.New(rand.NewSource(1))
	self := id.ID(0x5a5a)
	contact := func(x id.ID) wire.Contact {
		return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}
	}
	r := &Ring{
		space:      space,
		self:       contact(self),
		bucketSize: 8,
		buckets:    make([][]wire.Contact, space.Bits()),
		repl:       make([][]wire.Contact, space.Bits()),
	}
	// 63 peers of a 64-node overlay, each in its own bucket up to the
	// bucket size — the table the benchmark's kademlia overlay converges to.
	for len(r.pending) < 63 {
		x := id.ID(rng.Uint64() & (space.Size() - 1))
		if x == self {
			continue
		}
		r.pending = append(r.pending, contact(x))
		if i := r.bucketIndex(x); len(r.buckets[i]) < r.bucketSize {
			r.buckets[i] = append(r.buckets[i], contact(x))
		}
	}
	r.pending = nil
	var aux []wire.Contact
	for i := 0; i < 8; i++ {
		aux = append(aux, contact(id.ID(rng.Uint64()&(space.Size()-1))))
	}
	r.SetAux(aux)
	targets := make([]id.ID, 256)
	for i := range targets {
		targets[i] = id.ID(rng.Uint64() & (space.Size() - 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Candidates(targets[i%len(targets)], 16)
	}
}
