package node

import (
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

func TestOwnerHints(t *testing.T) {
	var h ownerHints
	now := time.Unix(1000, 0)
	owner := func(x int) wire.Contact { return wire.Contact{ID: id.ID(x), Addr: "mem/owner"} }

	if _, ok := h.Get(7, now); ok {
		t.Fatal("empty cache answered")
	}
	h.Put(7, owner(70), now)
	h.Put(7, owner(71), now) // a rewrite replaces, it does not add
	if got, ok := h.Get(7, now); !ok || got != owner(71) {
		t.Fatalf("Get(7) = %v, %t; want the rewritten owner", got, ok)
	}
	if _, ok := h.Get(7, now.Add(ownerHintTTL)); ok {
		t.Fatal("hint served at its expiry time")
	}
	if len(h.m) != 0 {
		t.Fatal("expired hint not dropped on access")
	}
	h.Put(8, owner(80), now)
	h.Invalidate(8)
	if _, ok := h.Get(8, now); ok {
		t.Fatal("invalidated hint served")
	}

	// A full cache stays full: each new key displaces one entry, an
	// expired one when the first few inspected hold one.
	for k := 0; k < ownerHintCapacity; k++ {
		h.Put(id.ID(k), owner(k), now)
	}
	later := now.Add(time.Second)
	for k := ownerHintCapacity; k < ownerHintCapacity+100; k++ {
		h.Put(id.ID(k), owner(k), later)
		if len(h.m) != ownerHintCapacity {
			t.Fatalf("cache holds %d hints after inserting key %d, capacity %d", len(h.m), k, ownerHintCapacity)
		}
		if got, ok := h.Get(id.ID(k), later); !ok || got != owner(k) {
			t.Fatalf("just-written hint %d missing", k)
		}
	}
	h = ownerHints{}
	for k := 0; k < ownerHintCapacity; k++ {
		h.Put(id.ID(k), owner(k), now)
	}
	expired := now.Add(ownerHintTTL)
	h.Put(5000, owner(5000), expired)
	if len(h.m) != ownerHintCapacity {
		t.Fatalf("cache holds %d hints, capacity %d", len(h.m), ownerHintCapacity)
	}
	if _, ok := h.Get(5000, expired); !ok {
		t.Fatal("hint written into a cache of expired entries missing")
	}
}
