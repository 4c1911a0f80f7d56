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
