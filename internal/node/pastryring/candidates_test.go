package pastryring

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
// collect the deeper-prefix and equal-prefix entries behind a seen-set,
// stable-sort each class, concatenate, truncate. Kept as the reference
// the live implementation must match exactly.
func (r *Ring) candidatesRef(target id.ID, max int) []wire.Contact {
	hop, done := r.NextHop(target)
	out := []wire.Contact{hop}
	if done || max <= 1 {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	l := r.space.CommonPrefixLen(r.self.ID, target)
	seen := map[id.ID]bool{hop.ID: true, r.self.ID: true}
	type cand struct {
		c     wire.Contact
		depth uint
	}
	var deeper []cand
	var equal []wire.Contact
	visit := func(c wire.Contact) {
		if c.IsZero() || seen[c.ID] {
			return
		}
		wl := r.space.CommonPrefixLen(c.ID, target)
		switch {
		case wl > l:
			seen[c.ID] = true
			deeper = append(deeper, cand{c, wl})
		case wl == l && closer(r.space, c.ID, r.self.ID, target):
			seen[c.ID] = true
			equal = append(equal, c)
		}
	}
	r.eachEntry(visit)
	for _, a := range r.Aux() {
		visit(a)
	}
	sort.SliceStable(deeper, func(i, j int) bool { return deeper[i].depth > deeper[j].depth })
	sort.SliceStable(equal, func(i, j int) bool { return closer(r.space, equal[i].ID, equal[j].ID, target) })
	for _, d := range deeper {
		if len(out) >= max {
			return out
		}
		out = append(out, d.c)
	}
	for _, c := range equal {
		if len(out) >= max {
			return out
		}
		out = append(out, c)
	}
	return out
}

// randomRing fills a Ring's table from a small id pool, so leaves, rows
// and aux name the same ids repeatedly — under different addresses, as
// an owner-aliased aux entry does — and some slots hold the node's own
// id. Leaves come from ids near self and are usually full, so the leaf
// arc is narrow and most targets fall to rules 2 and 3, where
// Candidates has fallbacks to order; rows and aux come from anywhere.
func randomRing(rng *rand.Rand, space id.Space) *Ring {
	mask := space.Size() - 1
	selfID := id.ID(rng.Uint64() & mask)
	near, all := []id.ID{selfID}, []id.ID{selfID}
	for i := 0; i < 8; i++ {
		near = append(near, space.Add(selfID, uint64(rng.Intn(64))-32))
		all = append(all, id.ID(rng.Uint64()&mask), near[len(near)-1])
	}
	pick := func(tag string, pool []id.ID) wire.Contact {
		x := pool[rng.Intn(len(pool))]
		return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%s/%d", tag, x)}
	}
	r := &Ring{
		space:    space,
		self:     wire.Contact{ID: selfID, Addr: "mem/self"},
		leafHalf: 4,
		rows:     make([]wire.Contact, space.Bits()),
		hasRow:   make([]bool, space.Bits()),
	}
	cw, ccw := r.leafHalf, r.leafHalf
	if rng.Intn(4) == 0 {
		cw, ccw = rng.Intn(5), rng.Intn(5)
	}
	for i := 0; i < cw; i++ {
		r.leafCW = append(r.leafCW, pick("cw", near))
	}
	for i := 0; i < ccw; i++ {
		r.leafCCW = append(r.leafCCW, pick("ccw", near))
	}
	for i := range r.rows {
		if rng.Intn(2) == 0 {
			r.rows[i], r.hasRow[i] = pick("row", all), true
		}
	}
	var aux []wire.Contact
	for i := 0; i < rng.Intn(9); i++ {
		aux = append(aux, pick("aux", all))
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
			if q%2 == 1 {
				target = space.Add(r.self.ID, uint64(rng.Intn(256))-128)
			}
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

func BenchmarkCandidatesPastry(b *testing.B) {
	space := id.NewSpace(16)
	rng := rand.New(rand.NewSource(1))
	self := id.ID(0x5a5a)
	contact := func(x id.ID) wire.Contact {
		return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}
	}
	r := &Ring{
		space:    space,
		self:     contact(self),
		leafHalf: 4,
		rows:     make([]wire.Contact, space.Bits()),
		hasRow:   make([]bool, space.Bits()),
	}
	for i := 1; i <= 4; i++ {
		r.leafCW = append(r.leafCW, contact(space.Add(self, uint64(i)*3)))
		r.leafCCW = append(r.leafCCW, contact(space.Add(self, -uint64(i)*3)))
	}
	for l := uint(0); l < space.Bits(); l++ {
		// Shares exactly l leading bits with self: flip bit l, randomize the rest.
		x := uint64(self) ^ (1 << (space.Bits() - 1 - l))
		low := uint64(1)<<(space.Bits()-1-l) - 1
		x = x&^low | rng.Uint64()&low
		r.rows[l], r.hasRow[l] = contact(id.ID(x)), true
	}
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
		r.Candidates(targets[i%len(targets)], 3)
	}
}
