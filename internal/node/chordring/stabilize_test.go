package chordring

import (
	"fmt"
	"testing"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// mc is the test contact for id x.
func mc(x id.ID) wire.Contact { return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)} }

// getPred asks r for its predecessor as from would, through the request
// handler the runtime calls.
func getPred(t *testing.T, r *Ring, from id.ID) (wire.Contact, bool) {
	t.Helper()
	resp := &wire.Message{}
	if !r.HandleRequest(&wire.Message{Type: wire.TGetPred, From: mc(from)}, resp) {
		t.Fatal("TGetPred not handled")
	}
	return resp.Pred, resp.HasPred
}

// notifyFrom delivers a notify from x to r.
func notifyFrom(t *testing.T, r *Ring, x id.ID) {
	t.Helper()
	if !r.HandleRequest(&wire.Message{Type: wire.TNotify, From: mc(x)}, &wire.Message{}) {
		t.Fatal("TNotify not handled")
	}
}

// chainHost answers get-pred at each address from answers (the node
// asked names that contact, or this node when it has no entry) and
// acknowledges notifies. Every address is alive unless listed in dead,
// and heard unless listed in unheard.
func chainHost(space id.Space, self wire.Contact, answers map[id.ID]id.ID, dead map[string]bool) (*stubHost, *[]string) {
	var asked []string
	h := &stubHost{space: space, self: self, heard: map[string]bool{}}
	h.call = func(addr string, req *wire.Message) (*wire.Message, error) {
		if dead[addr] {
			return nil, fmt.Errorf("stub: %s is down", addr)
		}
		var at id.ID
		fmt.Sscanf(addr, "mem/%d", &at)
		switch req.Type {
		case wire.TGetPred:
			asked = append(asked, addr)
			pred := self
			if x, ok := answers[at]; ok {
				pred = mc(x)
			}
			return &wire.Message{Type: wire.TGetPredResp, From: mc(at), Pred: pred, HasPred: true}, nil
		case wire.TNotify:
			return &wire.Message{Type: wire.TNotifyAck, From: mc(at)}, nil
		case wire.TPing:
			return &wire.Message{Type: wire.TPong, From: mc(at)}, nil
		}
		return nil, fmt.Errorf("stub: unexpected request type %d", req.Type)
	}
	return h, &asked
}

// TestGetPredNamesNearestNotifier: a get-pred from x names, of the
// nodes that notified this one, the nearest clockwise past x — never x
// itself — and the predecessor when no notifier lies between x and
// this node.
func TestGetPredNamesNearestNotifier(t *testing.T) {
	space := id.NewSpace(8)
	for _, tc := range []struct {
		name string
		from id.ID
		want id.ID
	}{
		{"nearest past the requester", 40, 50},
		{"not the requester itself", 50, 120},
		{"nearest past the requester, later on", 130, 180},
		{"no notifier between: the predecessor", 190, 180},
		{"across zero", 230, 50},
	} {
		h, _ := chainHost(space, mc(200), nil, nil)
		r := newTestRing(t, h, 1)
		for _, x := range []id.ID{120, 50, 180} {
			notifyFrom(t, r, x)
		}
		if p, ok := r.Predecessor(); !ok || p.ID != 180 {
			t.Fatalf("predecessor %v %t, want 180", p, ok)
		}
		if got, ok := getPred(t, r, tc.from); !ok || got.ID != tc.want || got.Addr != mc(tc.want).Addr {
			t.Errorf("%s: get-pred from %d named %v (%t), want %d", tc.name, tc.from, got, ok, tc.want)
		}
	}

	// A get-pred counts as a notify: its requester takes this node for
	// its successor, so the next requester behind it is pointed at it.
	h, _ := chainHost(space, mc(200), nil, nil)
	r := newTestRing(t, h, 1)
	if _, ok := getPred(t, r, 60); ok {
		t.Fatal("a node with no notifier and no predecessor named one")
	}
	if got, _ := getPred(t, r, 10); got.ID != 60 {
		t.Fatalf("get-pred from 10 after a get-pred from 60 named %v, want 60", got)
	}

	// A notifier the runtime found dead is named no more.
	r.DropPeer(60)
	if got, ok := getPred(t, r, 10); ok {
		t.Fatalf("get-pred named %v after its only notifier was dropped", got)
	}
}

// TestNotifierExpiresAfterTwoRounds: a notifier is named for two
// Stabilize rounds after its notify and not in the third; then the
// predecessor is named again.
func TestNotifierExpiresAfterTwoRounds(t *testing.T) {
	space := id.NewSpace(8)
	h, _ := chainHost(space, mc(200), nil, nil)
	r := newTestRing(t, h, 1)
	r.adoptSuccessor(mc(210))
	notifyFrom(t, r, 50)
	notifyFrom(t, r, 180)
	for round := 0; round < 2; round++ {
		if got, _ := getPred(t, r, 40); got.ID != 50 {
			t.Fatalf("after %d rounds get-pred named %v, want notifier 50", round, got)
		}
		r.Stabilize()
	}
	if got, _ := getPred(t, r, 40); got.ID != 180 {
		t.Fatalf("after 2 rounds get-pred named %v, want the predecessor 180", got)
	}
}

// TestStabilizeAdoptsOnlyLiveHints: a node named by the successor's
// get-pred answer is adopted only when Host.Alive confirms it, and a
// live one is asked in turn within the same round.
func TestStabilizeAdoptsOnlyLiveHints(t *testing.T) {
	space := id.NewSpace(8)
	self := mc(10)
	for _, dead := range []bool{true, false} {
		down := map[string]bool{}
		if dead {
			down[mc(50).Addr] = true
		}
		h, asked := chainHost(space, self, map[id.ID]id.ID{80: 50}, down)
		r := newTestRing(t, h, 1)
		r.adoptSuccessor(mc(80))
		r.Stabilize()
		want, wantAsked := id.ID(50), []string{"mem/80", "mem/50"}
		if dead {
			want, wantAsked = 80, []string{"mem/80"}
		}
		if got := r.successor(); got.ID != want {
			t.Errorf("dead=%t: successor %v, want %d", dead, got, want)
		}
		if fmt.Sprint(*asked) != fmt.Sprint(wantAsked) {
			t.Errorf("dead=%t: asked %v for get-pred, want %v", dead, *asked, wantAsked)
		}
	}
}

// TestStabilizeFollowsHintsUpToListLength: one round asks at most
// NeighborListLen nodes for their predecessor, each the closer node the
// previous one named, and adopts the last one named.
func TestStabilizeFollowsHintsUpToListLength(t *testing.T) {
	space := id.NewSpace(8)
	h, asked := chainHost(space, mc(10), map[id.ID]id.ID{80: 70, 70: 60, 60: 50, 50: 40, 40: 30}, nil)
	r := newTestRing(t, h, 1) // NeighborListLen 4
	r.adoptSuccessor(mc(80))
	r.Stabilize()
	if want := []string{"mem/80", "mem/70", "mem/60", "mem/50"}; fmt.Sprint(*asked) != fmt.Sprint(want) {
		t.Fatalf("asked %v for get-pred, want %v", *asked, want)
	}
	if got := r.Successors(); len(got) < 2 || got[0].ID != 40 || got[1].ID != 50 {
		t.Fatalf("successors %v, want 40 then 50 first", got)
	}
	*asked = nil
	r.Stabilize()
	if want := []string{"mem/40", "mem/30"}; fmt.Sprint(*asked) != fmt.Sprint(want) {
		t.Fatalf("second round asked %v, want %v", *asked, want)
	}
}

// TestStabilizeAdoptsOwnNotifier: a node that notified this one and
// lies between it and its successor becomes the successor before the
// round asks anyone; on a ring of one, the nearest notifier clockwise
// is adopted, not the predecessor.
func TestStabilizeAdoptsOwnNotifier(t *testing.T) {
	space := id.NewSpace(8)
	h, asked := chainHost(space, mc(10), nil, nil)
	r := newTestRing(t, h, 1)
	r.adoptSuccessor(mc(80))
	notifyFrom(t, r, 30)
	r.Stabilize()
	if got := r.successor(); got.ID != 30 {
		t.Fatalf("successor %v, want notifier 30", got)
	}
	if fmt.Sprint(*asked) != "[mem/30]" {
		t.Fatalf("asked %v for get-pred, want [mem/30]", *asked)
	}

	h, asked = chainHost(space, mc(10), nil, nil)
	alone := newTestRing(t, h, 1)
	notifyFrom(t, alone, 200)
	notifyFrom(t, alone, 30)
	if p, _ := alone.Predecessor(); p.ID != 200 {
		t.Fatalf("predecessor %v, want 200", p)
	}
	alone.Stabilize()
	if got := alone.successor(); got.ID != 30 {
		t.Fatalf("ring of one adopted %v, want the nearest notifier 30", got)
	}
	if fmt.Sprint(*asked) != "[mem/30]" {
		t.Fatalf("ring of one asked %v for get-pred, want [mem/30]", *asked)
	}
}

// TestJoinNotifiesSuccessor: a joiner notifies the successor its join
// walk found, before any stabilize round.
func TestJoinNotifiesSuccessor(t *testing.T) {
	space := id.NewSpace(8)
	var notified []string
	h := &stubHost{space: space, self: mc(10), heard: map[string]bool{}}
	h.call = func(addr string, req *wire.Message) (*wire.Message, error) {
		switch req.Type {
		case wire.TFindSucc:
			return &wire.Message{Type: wire.TFindSuccResp, From: mc(200), Done: true, Found: mc(80)}, nil
		case wire.TNotify:
			notified = append(notified, addr)
			return &wire.Message{Type: wire.TNotifyAck, From: mc(80)}, nil
		}
		return nil, fmt.Errorf("stub: unexpected request type %d", req.Type)
	}
	r := newTestRing(t, h, 1)
	if err := r.Join("mem/200"); err != nil {
		t.Fatal(err)
	}
	if r.successor().ID != 80 || fmt.Sprint(notified) != "[mem/80]" {
		t.Fatalf("successor %v, notified %v; want 80 and [mem/80]", r.successor(), notified)
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
