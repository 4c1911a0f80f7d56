package ring

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"peercache/internal/id"
	"peercache/internal/wire"
)

func auxContacts(ids ...id.ID) []wire.Contact {
	out := make([]wire.Contact, len(ids))
	for i, x := range ids {
		out[i] = wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}
	}
	return out
}

func TestAuxSetZeroValueIsEmpty(t *testing.T) {
	var s AuxSet
	if got := s.Aux(); len(got) != 0 {
		t.Fatalf("zero AuxSet holds %v", got)
	}
	if s.HasAux(0) {
		t.Fatal("zero AuxSet reports id 0")
	}
	s.RemoveAux(0) // must not panic
}

// A snapshot already returned is never changed by a later SetAux or
// RemoveAux, and SetAux does not alias the caller's slice.
func TestAuxSetSnapshotsAreStable(t *testing.T) {
	var s AuxSet
	in := auxContacts(1, 2, 3)
	s.SetAux(in)
	in[0] = wire.Contact{ID: 9, Addr: "mem/9"}
	snap := s.Aux()
	want := auxContacts(1, 2, 3)
	if !slices.Equal(snap, want) {
		t.Fatalf("SetAux kept the caller's slice: %v", snap)
	}
	s.RemoveAux(2)
	if !slices.Equal(snap, want) {
		t.Fatalf("RemoveAux changed an earlier snapshot: %v", snap)
	}
	if got := s.Aux(); !slices.Equal(got, auxContacts(1, 3)) {
		t.Fatalf("after RemoveAux(2): %v", got)
	}
	after := s.Aux()
	s.SetAux(auxContacts(7))
	if !slices.Equal(after, auxContacts(1, 3)) {
		t.Fatalf("SetAux changed an earlier snapshot: %v", after)
	}
	if !s.HasAux(7) || s.HasAux(1) {
		t.Fatalf("HasAux disagrees with %v", s.Aux())
	}
}

// Removing an absent id leaves the installed slice itself in place.
func TestAuxSetRemoveAbsentIsNoOp(t *testing.T) {
	var s AuxSet
	s.SetAux(auxContacts(1, 2))
	before := s.p.Load()
	s.RemoveAux(5)
	if s.p.Load() != before {
		t.Fatal("removing an absent id replaced the set")
	}
	if got := s.Aux(); !slices.Equal(got, auxContacts(1, 2)) {
		t.Fatalf("removing an absent id changed the set to %v", got)
	}
}

// Concurrent writers and readers: run under -race. Every snapshot a
// reader sees is one some writer installed, minus removals — never a
// torn or partly rewritten slice.
func TestAuxSetConcurrent(t *testing.T) {
	var s AuxSet
	var wg sync.WaitGroup
	const rounds = 2000
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				base := id.ID(w*100 + i%10)
				s.SetAux(auxContacts(base, base+1, base+2))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.RemoveAux(id.ID(i % 12))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := s.Aux()
				for _, a := range snap {
					if a.Addr != fmt.Sprintf("mem/%d", a.ID) {
						t.Errorf("torn entry %v", a)
						return
					}
				}
				if len(snap) > 3 {
					t.Errorf("snapshot of %d entries, no writer installs more than 3", len(snap))
					return
				}
				s.HasAux(id.ID(i % 12))
			}
		}()
	}
	wg.Wait()
}
