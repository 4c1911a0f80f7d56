package pastryring

import (
	"fmt"
	"testing"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// TestNextHopAgreesWithResponsibleOnWrappedLeafSet pins rule 1 on a
// ring small enough that both leaf sides hold every other node, so the
// sides overlap and the leaves cover the whole ring. Every target is
// then leaf-set territory: NextHop must deliver it to the numerically
// closest node, and claim it for self exactly when Responsible does.
// Read as the plain arc from the farthest counter-clockwise leaf to the
// farthest clockwise leaf, the wrapped sides leave out self's own
// neighborhood; key 7096 then falls to the prefix rules, which claim it
// for node 30670 while 49716 is numerically closer and responsible. The
// replica holder's stranded repair resolves its own id and never pushes
// the copy to the owner.
func TestNextHopAgreesWithResponsibleOnWrappedLeafSet(t *testing.T) {
	space := id.NewSpace(16)
	contact := func(x id.ID) wire.Contact {
		return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}
	}
	r := &Ring{
		space:    space,
		self:     contact(30670),
		leafHalf: 4,
		rows:     make([]wire.Contact, space.Bits()),
		hasRow:   make([]bool, space.Bits()),
	}
	for _, x := range []id.ID{32553, 37814, 47046, 49716} {
		r.leafCW = append(r.leafCW, contact(x))
	}
	for _, x := range []id.ID{49716, 47046, 37814, 32553} {
		r.leafCCW = append(r.leafCCW, contact(x))
	}
	if hop, done := r.NextHop(7096); !done || hop.ID != 49716 {
		t.Fatalf("NextHop(7096) = %d done=%v, want 49716 done", hop.ID, done)
	}
	responsible, _ := r.Responsible()
	for k := uint64(0); k < space.Size(); k++ {
		hop, done := r.NextHop(id.ID(k))
		if !done {
			t.Fatalf("NextHop(%d) redirected to %d inside a leaf set covering the ring", k, hop.ID)
		}
		if claims := hop.ID == r.self.ID; claims != responsible(id.ID(k)) {
			t.Fatalf("key %d: NextHop claims=%v, Responsible=%v", k, claims, responsible(id.ID(k)))
		}
	}
}
