package chordring

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
// collect every window entry behind a seen-set, sort, truncate. Kept
// as the reference the live implementation must match exactly.
func (r *Ring) candidatesRef(target id.ID, max int) []wire.Contact {
	hop, done := r.NextHop(target)
	out := []wire.Contact{hop}
	if done || max <= 1 {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	gt := r.space.Gap(r.self.ID, target)
	type cand struct {
		c wire.Contact
		g uint64
	}
	seen := map[id.ID]bool{hop.ID: true, r.self.ID: true}
	var cs []cand
	add := func(c wire.Contact) {
		if c.IsZero() || seen[c.ID] {
			return
		}
		g := r.space.Gap(r.self.ID, c.ID)
		if g == 0 || g > gt {
			return // self or overshoot
		}
		seen[c.ID] = true
		cs = append(cs, cand{c, g})
	}
	for i, ok := range r.hasFinger {
		if ok {
			add(r.fingers[i])
		}
	}
	for _, s := range r.succs {
		add(s)
	}
	for _, a := range r.Aux() {
		add(a)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].g > cs[j].g })
	for _, x := range cs {
		if len(out) >= max {
			break
		}
		out = append(out, x.c)
	}
	return out
}

// randomRing fills a Ring's table from a small id pool, so fingers,
// successors and aux name the same ids repeatedly — under different
// addresses, as an owner-aliased aux entry does — and some slots hold
// the node's own id or ids past any target.
func randomRing(rng *rand.Rand, space id.Space) *Ring {
	pool := make([]id.ID, 12)
	for i := range pool {
		pool[i] = id.ID(rng.Uint64() & (space.Size() - 1))
	}
	self := wire.Contact{ID: pool[0], Addr: "mem/self"}
	pick := func(tag string) wire.Contact {
		x := pool[rng.Intn(len(pool))]
		return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%s/%d", tag, x)}
	}
	r := &Ring{
		space:     space,
		self:      self,
		maxSucc:   4,
		fingers:   make([]wire.Contact, space.Bits()),
		hasFinger: make([]bool, space.Bits()),
	}
	for i := range r.fingers {
		if rng.Intn(3) > 0 {
			r.fingers[i], r.hasFinger[i] = pick("finger"), true
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		r.succs = append(r.succs, pick("succ"))
	}
	var aux []wire.Contact
	for i := 0; i < rng.Intn(9); i++ {
		aux = append(aux, pick("aux"))
	}
	r.SetAux(aux)
	if rng.Intn(2) == 0 {
		r.pred, r.hasPred = pick("pred"), true
	}
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

func BenchmarkCandidatesChord(b *testing.B) {
	space := id.NewSpace(16)
	rng := rand.New(rand.NewSource(1))
	r := &Ring{
		space:     space,
		self:      wire.Contact{ID: 1, Addr: "mem/1"},
		fingers:   make([]wire.Contact, space.Bits()),
		hasFinger: make([]bool, space.Bits()),
	}
	contact := func(x uint64) wire.Contact {
		return wire.Contact{ID: id.ID(x), Addr: fmt.Sprintf("mem/%d", x)}
	}
	for i := range r.fingers {
		r.fingers[i], r.hasFinger[i] = contact(1+uint64(1)<<i+uint64(rng.Intn(1<<i))), true
	}
	for i := 0; i < 4; i++ {
		r.succs = append(r.succs, contact(uint64(2+i)))
	}
	var aux []wire.Contact
	for i := 0; i < 8; i++ {
		aux = append(aux, contact(rng.Uint64()&(space.Size()-1)|1<<4))
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
