package chordring

import (
	"fmt"
	"testing"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// TestStabilizePredecessorLivenessRidesNotify: the predecessor's own
// TNotify proves it alive, so a round after one skips the predecessor
// ping; a round without one (a stranger's notify does not count) pings
// it once, and a failed ping clears the predecessor.
func TestStabilizePredecessorLivenessRidesNotify(t *testing.T) {
	space := id.NewSpace(8)
	self := wire.Contact{ID: 10, Addr: "mem/10"}
	succ := wire.Contact{ID: 80, Addr: "mem/80"}
	pred := wire.Contact{ID: 220, Addr: "mem/220"}
	predAlive := true
	var predPings, otherPings int
	h := &stubHost{space: space, self: self}
	h.call = func(addr string, req *wire.Message) (*wire.Message, error) {
		switch req.Type {
		case wire.TGetPred:
			// The successor already points back at this node, so the
			// round adopts nobody new and pings nobody but pred.
			return &wire.Message{Type: wire.TGetPredResp, From: succ, Pred: self, HasPred: true}, nil
		case wire.TNotify:
			return &wire.Message{Type: wire.TNotifyAck, From: succ}, nil
		case wire.TPing:
			if addr != pred.Addr {
				otherPings++
				return &wire.Message{Type: wire.TPong}, nil
			}
			predPings++
			if !predAlive {
				return nil, fmt.Errorf("stub: %s is down", addr)
			}
			return &wire.Message{Type: wire.TPong, From: pred}, nil
		}
		return nil, fmt.Errorf("stub: unexpected request type %d", req.Type)
	}
	r := newTestRing(t, h, 1)
	r.adoptSuccessor(succ)
	notify := func() {
		if !r.HandleRequest(&wire.Message{Type: wire.TNotify, From: pred}, &wire.Message{}) {
			t.Fatal("TNotify not handled")
		}
	}

	notify()
	r.Stabilize()
	if predPings != 0 {
		t.Fatalf("round after the predecessor's notify pinged it %d times, want 0", predPings)
	}
	notify()
	r.Stabilize()
	if predPings != 0 {
		t.Fatalf("second notified round pinged the predecessor %d times, want 0", predPings)
	}

	// A notify from a node that does not displace the predecessor says
	// nothing about the predecessor's liveness.
	stranger := wire.Contact{ID: 150, Addr: "mem/150"}
	r.HandleRequest(&wire.Message{Type: wire.TNotify, From: stranger}, &wire.Message{})
	r.Stabilize()
	if predPings != 1 {
		t.Fatalf("round without a predecessor notify pinged it %d times, want 1", predPings)
	}
	if p, ok := r.Predecessor(); !ok || p.ID != pred.ID {
		t.Fatalf("live predecessor lost: %v %t", p, ok)
	}

	predAlive = false
	r.Stabilize()
	if predPings != 2 {
		t.Fatalf("round without a notify pinged the predecessor %d times in total, want 2", predPings)
	}
	if p, ok := r.Predecessor(); ok {
		t.Fatalf("failed ping left predecessor %v in place", p)
	}
	if otherPings != 0 {
		t.Fatalf("rounds pinged %d contacts other than the predecessor", otherPings)
	}
}
