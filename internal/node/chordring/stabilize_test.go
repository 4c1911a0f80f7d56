package chordring

import (
	"fmt"
	"testing"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// TestStabilizePredecessorLivenessRidesNotify: the predecessor's check
// goes through Host.Alive, so a predecessor the runtime heard from
// within the round — its TNotify is a request, and the runtime stamps
// every request's sender heard — costs no ping; one not heard is
// pinged exactly once, and a failed ping clears the predecessor.
func TestStabilizePredecessorLivenessRidesNotify(t *testing.T) {
	space := id.NewSpace(8)
	self := wire.Contact{ID: 10, Addr: "mem/10"}
	succ := wire.Contact{ID: 80, Addr: "mem/80"}
	pred := wire.Contact{ID: 220, Addr: "mem/220"}
	predAlive := true
	var predPings, otherPings int
	h := &stubHost{space: space, self: self, heard: map[string]bool{}}
	h.call = func(addr string, req *wire.Message) (*wire.Message, error) {
		switch req.Type {
		case wire.TGetPred:
			// The successor already points back at this node, so the
			// round adopts nobody new and checks nobody but pred.
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
	if !r.HandleRequest(&wire.Message{Type: wire.TNotify, From: pred}, &wire.Message{}) {
		t.Fatal("TNotify not handled")
	}

	h.heard[pred.Addr] = true
	for round := 1; round <= 2; round++ {
		r.Stabilize()
		if predPings != 0 {
			t.Fatalf("heard round %d pinged the predecessor %d times, want 0", round, predPings)
		}
	}

	delete(h.heard, pred.Addr)
	r.Stabilize()
	if predPings != 1 {
		t.Fatalf("round without hearing the predecessor pinged it %d times, want 1", predPings)
	}
	if p, ok := r.Predecessor(); !ok || p.ID != pred.ID {
		t.Fatalf("live predecessor lost: %v %t", p, ok)
	}

	predAlive = false
	r.Stabilize()
	if predPings != 2 {
		t.Fatalf("round without hearing the predecessor pinged it %d times in total, want 2", predPings)
	}
	if p, ok := r.Predecessor(); ok {
		t.Fatalf("failed ping left predecessor %v in place", p)
	}
	if otherPings != 0 {
		t.Fatalf("rounds pinged %d contacts other than the predecessor", otherPings)
	}
}

// BenchmarkStabilizeChord prices one maintenance round — a Stabilize
// and a RepairTable call — on a node whose successor already points
// back at it: RPCs issued through Host.Call (rpcs/round; the finger
// refresh resolves through the stub's canned Resolve, which is not
// counted) and liveness pings among them (pings/round). In the heard
// case the runtime has heard from every contact within the period, and
// the round must ping nobody.
func BenchmarkStabilizeChord(b *testing.B) {
	for _, heard := range []bool{false, true} {
		name := "unheard"
		if heard {
			name = "heard"
		}
		b.Run(name, func(b *testing.B) {
			space := id.NewSpace(8)
			self := wire.Contact{ID: 10, Addr: "mem/10"}
			succ := wire.Contact{ID: 80, Addr: "mem/80"}
			pred := wire.Contact{ID: 220, Addr: "mem/220"}
			var rpcs, pings int
			h := &stubHost{space: space, self: self, members: []id.ID{10, 80, 150, 220}, heard: map[string]bool{}}
			h.call = func(addr string, req *wire.Message) (*wire.Message, error) {
				rpcs++
				switch req.Type {
				case wire.TGetPred:
					return &wire.Message{Type: wire.TGetPredResp, From: succ, Pred: self, HasPred: true}, nil
				case wire.TNotify:
					return &wire.Message{Type: wire.TNotifyAck, From: succ}, nil
				case wire.TPing:
					pings++
					return &wire.Message{Type: wire.TPong}, nil
				}
				return nil, fmt.Errorf("stub: unexpected request type %d", req.Type)
			}
			r := newTestRing(b, h, 1)
			r.adoptSuccessor(succ)
			r.notify(pred)
			if heard {
				h.heard[succ.Addr], h.heard[pred.Addr] = true, true
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Stabilize()
				r.RepairTable()
			}
			b.StopTimer()
			b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/round")
			b.ReportMetric(float64(pings)/float64(b.N), "pings/round")
			if heard && pings != 0 {
				b.Fatalf("all contacts heard, yet %d liveness pings", pings)
			}
		})
	}
}
