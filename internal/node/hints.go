package node

import (
	"sync"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// Owner-hint cache dimensions. The hints only have to survive between a
// key's lookups and the next aux recomputation; a stale hint costs one
// extra redirect (the old owner's find-successor answer points onward),
// so the cache can be small and short-lived.
const (
	ownerHintCapacity = 1024
	ownerHintTTL      = 2 * time.Minute
)

// ownerHints maps a key's ring position to the contact that last
// resolved it: what lets recomputeAux alias an aux pointer at a hot key
// to the key's owner. Every application lookup writes one entry and an
// aux recomputation reads a handful, so an entry is a plain map value —
// no recency list, nothing allocated per entry — and the map grows with
// the keys a node actually looks up. A full cache drops an expired
// entry if the first few it tries hold one, else an arbitrary one: by
// then the hot keys, which are the ones an aux pointer can be aliased
// to, have been rewritten far more recently than any victim is likely
// to be.
type ownerHints struct {
	mu sync.Mutex
	m  map[id.ID]ownerHint
}

type ownerHint struct {
	owner   wire.Contact
	expires int64 // unix nanoseconds
}

// evictProbes bounds how many entries a full cache inspects for an
// expired victim before taking the last one inspected.
const evictProbes = 4

func (h *ownerHints) Put(key id.ID, owner wire.Contact, now time.Time) {
	hint := ownerHint{owner: owner, expires: now.Add(ownerHintTTL).UnixNano()}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.m == nil {
		h.m = make(map[id.ID]ownerHint)
	}
	if _, ok := h.m[key]; !ok && len(h.m) >= ownerHintCapacity {
		victim, probes := key, 0
		for k, v := range h.m {
			victim = k
			if probes++; v.expires <= now.UnixNano() || probes == evictProbes {
				break
			}
		}
		delete(h.m, victim)
	}
	h.m[key] = hint
}

func (h *ownerHints) Get(key id.ID, now time.Time) (wire.Contact, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hint, ok := h.m[key]
	if !ok {
		return wire.Contact{}, false
	}
	if hint.expires <= now.UnixNano() {
		delete(h.m, key)
		return wire.Contact{}, false
	}
	return hint.owner, true
}

func (h *ownerHints) Invalidate(key id.ID) {
	h.mu.Lock()
	delete(h.m, key)
	h.mu.Unlock()
}
