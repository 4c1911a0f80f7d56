package ring

import (
	"slices"
	"sync/atomic"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// AuxSet is the installed auxiliary neighbor set A_s, written once for
// every geometry: each Ring embeds one, which gives it the Routing
// contract's Aux, HasAux, SetAux and RemoveAux. The set is a
// copy-on-write slice behind an atomic pointer, so the per-lookup
// HasAux and the NextHop/Candidates splice read a snapshot without
// taking the geometry's lock. The zero value is an empty set.
type AuxSet struct {
	p atomic.Pointer[[]wire.Contact]
}

// Aux returns the installed set. The slice is a snapshot: a later
// SetAux or RemoveAux never changes it, and callers must not either.
func (s *AuxSet) Aux() []wire.Contact {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return nil
}

// HasAux reports whether x is in the installed set.
func (s *AuxSet) HasAux(x id.ID) bool {
	for _, a := range s.Aux() {
		if a.ID == x {
			return true
		}
	}
	return false
}

// SetAux installs a copy of aux as the set.
func (s *AuxSet) SetAux(aux []wire.Contact) {
	next := slices.Clone(aux)
	s.p.Store(&next)
}

// RemoveAux drops every entry with id x (its liveness ping failed).
// Removing an absent id does nothing.
func (s *AuxSet) RemoveAux(x id.ID) {
	isX := func(a wire.Contact) bool { return a.ID == x }
	for {
		old := s.p.Load()
		if old == nil || !slices.ContainsFunc(*old, isX) {
			return
		}
		next := slices.DeleteFunc(slices.Clone(*old), isX)
		if s.p.CompareAndSwap(old, &next) {
			return
		}
	}
}
