package pastryring

import (
	"fmt"
	"testing"

	"peercache/internal/id"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// fakeNet wires Rings together in memory for white-box maintenance
// tests. A Call dispatches to the addressed ring's HandleRequest exactly
// as the runtime's read loop would, answering the runtime-owned TPing
// itself; an address in dead (or one nobody listens at) fails every
// Call, as a crashed peer does once the runtime's retries run out, and
// the next lose[addr] Calls to addr fail, as ones whose every attempt
// was lost do. Alive stands in for the runtime's liveness record: an
// address in heard answers without I/O, any other costs one TPing Call,
// and a failed ping drops the peer at the address ("fake/<id>") from
// the caller, as the runtime's check does.
type fakeNet struct {
	rings map[string]*Ring
	dead  map[string]bool
	lose  map[string]int
	heard map[string]bool
	calls map[fakeCall]int // Calls issued, by caller, callee and type
	// resolve answers every Host.Resolve on the net; nil fails them.
	resolve func(target id.ID) (wire.Contact, error)
}

type fakeCall struct {
	from, to string
	typ      wire.Type
}

func newFakeNet() *fakeNet {
	return &fakeNet{rings: make(map[string]*Ring), dead: make(map[string]bool), lose: make(map[string]int), heard: make(map[string]bool), calls: make(map[fakeCall]int)}
}

// count sums the Calls r issued of type typ, to the address to or, when
// to is empty, to anyone.
func (n *fakeNet) count(r *Ring, typ wire.Type, to string) int {
	total := 0
	for c, k := range n.calls {
		if c.from == r.self.Addr && c.typ == typ && (to == "" || c.to == to) {
			total += k
		}
	}
	return total
}

// fakeHost is one ring's ring.Host on a fakeNet. Resolve defers to the
// net's resolve function, standing in for the runtime's lookup driver.
type fakeHost struct {
	self  wire.Contact
	space id.Space
	net   *fakeNet
}

func (h *fakeHost) Self() wire.Contact { return h.self }
func (h *fakeHost) Space() id.Space    { return h.space }

func (h *fakeHost) Call(addr string, req *wire.Message) (*wire.Message, error) {
	h.net.calls[fakeCall{h.self.Addr, addr, req.Type}]++
	peer, ok := h.net.rings[addr]
	if !ok || h.net.dead[addr] {
		return nil, fmt.Errorf("fakehost: %s does not answer", addr)
	}
	if h.net.lose[addr] > 0 {
		h.net.lose[addr]--
		return nil, fmt.Errorf("fakehost: every attempt to %s was lost", addr)
	}
	req.From = h.self
	resp := &wire.Message{From: peer.self}
	switch req.Type {
	case wire.TPing:
		resp.Type = wire.TPong
		return resp, nil
	case wire.TFindSucc:
		resp.Type = wire.TFindSuccResp
		if hop, done := peer.NextHop(req.Target); done {
			resp.Done, resp.Found = true, hop
		} else {
			resp.Next = hop
		}
		return resp, nil
	}
	if !peer.HandleRequest(req, resp) {
		return nil, fmt.Errorf("fakehost: node %d rejected request type %d", peer.self.ID, req.Type)
	}
	return resp, nil
}

func (h *fakeHost) Send(addr string, m *wire.Message) {}

func (h *fakeHost) Resolve(target id.ID) (wire.Contact, int, error) {
	if h.net.resolve == nil {
		return wire.Contact{}, 0, fmt.Errorf("fakehost: resolve unavailable")
	}
	c, err := h.net.resolve(target)
	return c, 1, err
}

func (h *fakeHost) Note(c wire.Contact) {}

func (h *fakeHost) Alive(addr string) bool {
	if h.net.heard[addr] {
		return true
	}
	if _, err := h.Call(addr, &wire.Message{Type: wire.TPing}); err == nil {
		return true
	}
	var x id.ID
	if _, err := fmt.Sscanf(addr, "fake/%d", &x); err == nil {
		h.net.rings[h.self.Addr].DropPeer(x)
	}
	return false
}

// addRing builds one Ring with leaf sides of 4 on the fake net.
func (n *fakeNet) addRing(tb testing.TB, space id.Space, x id.ID) *Ring {
	tb.Helper()
	self := wire.Contact{ID: x, Addr: fmt.Sprintf("fake/%d", x)}
	rt, err := New(&fakeHost{self: self, space: space, net: n}, ring.Options{
		NeighborListLen: 4,
		MaxLookupHops:   16,
	})
	if err != nil {
		tb.Fatal(err)
	}
	r := rt.(*Ring)
	n.rings[self.Addr] = r
	return r
}

// convergedRing boots a 16-node fake ring in a 16-bit space, one node
// near the start of every 4096-id block, and has every node learn every
// other directly: each leaf side holds the 4 true neighbors and each
// prefix row its first-learned candidate, the state maintenance keeps
// once an overlay has converged.
func convergedRing(tb testing.TB) (*fakeNet, []*Ring) {
	tb.Helper()
	space := id.NewSpace(16)
	net := newFakeNet()
	var rs []*Ring
	for i := 0; i < 16; i++ {
		rs = append(rs, net.addRing(tb, space, id.ID(i*4096+100+37*(i%5))))
	}
	for _, r := range rs {
		for _, o := range rs {
			r.learn(o.self)
		}
	}
	return net, rs
}

func listsContact(list []wire.Contact, x id.ID) bool {
	for _, c := range list {
		if c.ID == x {
			return true
		}
	}
	return false
}

// TestStabilizeConvergedRingPingsNobody: on a converged ring every
// contact a leaf or the row-gossip partner names is either already in
// the table or one learn would drop — beyond the farthest leaf on both
// sides, with its prefix row already filled — so a round probes each
// leaf once, trades rows once, and pings nobody.
func TestStabilizeConvergedRingPingsNobody(t *testing.T) {
	net, rs := convergedRing(t)
	for _, x := range rs {
		cw, ccw := x.Leaves()
		x.Stabilize()
		for _, lf := range append(cw, ccw...) {
			if got := net.count(x, wire.TLeafProbe, lf.Addr); got != 1 {
				t.Errorf("node %d probed leaf %d %d times, want 1", x.self.ID, lf.ID, got)
			}
		}
		if got, want := net.count(x, wire.TLeafProbe, ""), len(cw)+len(ccw); got != want {
			t.Errorf("node %d sent %d leaf probes, want %d", x.self.ID, got, want)
		}
		if got := net.count(x, wire.TRowExchange, ""); got != 1 {
			t.Errorf("node %d sent %d row exchanges, want 1", x.self.ID, got)
		}
		if got := net.count(x, wire.TPing, ""); got != 0 {
			t.Errorf("node %d pinged %d gossiped contacts on a converged ring, want 0", x.self.ID, got)
		}
	}
}

// joinUnseen adds node x to the fake net and teaches it to every leaf
// of self, but not to self: the situation a stabilize round's gossip
// resolves. It returns how many of self's leaves now list x.
func joinUnseen(t *testing.T, net *fakeNet, self *Ring, x id.ID) (*Ring, int) {
	t.Helper()
	n := net.addRing(t, self.space, x)
	cw, ccw := self.Leaves()
	naming := 0
	for _, lf := range append(cw, ccw...) {
		peer := net.rings[lf.Addr]
		peer.learn(n.self)
		n.learn(peer.self)
		pcw, pccw := peer.Leaves()
		if listsContact(append(pcw, pccw...), x) {
			naming++
		}
	}
	if listsContact(append(cw, ccw...), x) {
		t.Fatalf("setup: node %d already knows %d", self.self.ID, x)
	}
	return n, naming
}

// TestStabilizeAdoptsPlaceableCandidateWithOnePing: a gossiped contact
// closer than the farthest leaf is pinged before adoption — once, however
// many leaves name it — and lands in the leaf set.
func TestStabilizeAdoptsPlaceableCandidateWithOnePing(t *testing.T) {
	net, rs := convergedRing(t)
	x := rs[0]
	newcomer, naming := joinUnseen(t, net, x, x.self.ID+1000)
	if naming < 4 {
		t.Fatalf("setup: only %d of node %d's leaves name %d, want at least 4", naming, x.self.ID, newcomer.self.ID)
	}
	x.Stabilize()
	if got := net.count(x, wire.TPing, newcomer.self.Addr); got != 1 {
		t.Errorf("candidate named by %d leaves was pinged %d times, want 1", naming, got)
	}
	if got := net.count(x, wire.TPing, ""); got != 1 {
		t.Errorf("round pinged %d contacts, want only the candidate", got)
	}
	if cw, _ := x.Leaves(); len(cw) == 0 || cw[0].ID != newcomer.self.ID {
		t.Errorf("clockwise leaves %v, want %d adopted as the nearest", cw, newcomer.self.ID)
	}
}

// TestStabilizePingsDeadCandidateOncePerRound: a placeable candidate
// that does not answer costs one ping per round, not one per leaf that
// names it, and is never adopted.
func TestStabilizePingsDeadCandidateOncePerRound(t *testing.T) {
	net, rs := convergedRing(t)
	x := rs[0]
	ghost, _ := joinUnseen(t, net, x, x.self.ID+1000)
	net.dead[ghost.self.Addr] = true
	for round := 1; round <= 3; round++ {
		x.Stabilize()
		if got := net.count(x, wire.TPing, ghost.self.Addr); got != round {
			t.Fatalf("after %d rounds the dead candidate was pinged %d times, want %d", round, got, round)
		}
	}
	cw, ccw := x.Leaves()
	if listsContact(append(cw, ccw...), ghost.self.ID) || listsContact(x.TableList(), ghost.self.ID) {
		t.Fatalf("dead candidate %d was adopted", ghost.self.ID)
	}
}

// TestStabilizeKeepsLeafWhoseProbeFailed: a leaf probe whose every
// attempt was lost evicts nothing: the leaf stays in the leaf set,
// unpinged, for the runtime's check of the suspect to judge, which finds
// a live leaf alive.
func TestStabilizeKeepsLeafWhoseProbeFailed(t *testing.T) {
	net, rs := convergedRing(t)
	x := rs[0]
	cw, ccw := x.Leaves()
	lf := ccw[len(ccw)-1] // probed last, so no later leaf's reply re-teaches it
	net.lose[lf.Addr] = 1
	x.Stabilize()
	if got := net.count(x, wire.TLeafProbe, lf.Addr); got != 1 {
		t.Fatalf("leaf %d probed %d times, want 1", lf.ID, got)
	}
	gotCW, gotCCW := x.Leaves()
	if fmt.Sprint(gotCW, gotCCW) != fmt.Sprint(cw, ccw) {
		t.Fatalf("leaves after a failed probe %v %v, want %v %v", gotCW, gotCCW, cw, ccw)
	}
	if got := net.count(x, wire.TPing, ""); got != 0 {
		t.Fatalf("round pinged %d contacts, want none", got)
	}
}

// TestRepairTablePingsPopulatedRow: RepairTable's turn at a populated
// row is one ping to its entry; the entry stays while it answers and
// is cleared once it does not.
func TestRepairTablePingsPopulatedRow(t *testing.T) {
	net, rs := convergedRing(t)
	x := rs[0]
	row0, ok := x.Rows()[0]
	if !ok {
		t.Fatal("setup: row 0 is empty")
	}
	x.RepairTable()
	if got := net.count(x, wire.TPing, row0.Addr); got != 1 {
		t.Fatalf("repair of a live row pinged its entry %d times, want 1", got)
	}
	if got, ok := x.Rows()[0]; !ok || got.ID != row0.ID {
		t.Fatalf("live row 0 entry %d replaced by %v", row0.ID, got)
	}

	x.nextRow = 0
	net.dead[row0.Addr] = true
	x.RepairTable()
	if got := net.count(x, wire.TPing, row0.Addr); got != 2 {
		t.Fatalf("repair of a dead row pinged its entry %d times in total, want 2", got)
	}
	if got, ok := x.Rows()[0]; ok {
		t.Fatalf("dead row 0 entry survived repair: %v", got)
	}
	if got := len(net.calls); got != 1 {
		t.Fatalf("repair issued calls %v, want only the row pings", net.calls)
	}
}

// TestRepairTableFillsEmptyRow: RepairTable's turn at an empty row
// resolves an id in the row's subtree and adopts the answer; a failed
// resolve leaves the row empty.
func TestRepairTableFillsEmptyRow(t *testing.T) {
	net, rs := convergedRing(t)
	x := rs[0]
	space := x.space
	// Every other node sits in another 4096-id block, so x's rows from
	// 4 down are empty.
	for _, l := range []uint{4, 5} {
		if _, ok := x.Rows()[l]; ok {
			t.Fatalf("setup: row %d is populated", l)
		}
	}

	var target id.ID
	net.resolve = func(tg id.ID) (wire.Contact, error) {
		target = tg
		return net.addRing(t, space, tg).self, nil
	}
	x.nextRow = 4
	x.RepairTable()
	if got := space.CommonPrefixLen(x.self.ID, target); got != 4 {
		t.Fatalf("row 4 repair resolved %d, which shares %d prefix bits with %d", target, got, x.self.ID)
	}
	if got, ok := x.Rows()[4]; !ok || got.ID != target {
		t.Fatalf("row 4 after repair holds %v (%t), want the resolved node %d", got, ok, target)
	}

	// A failed lookup's partial answer is not adopted, even one that
	// would fit the row.
	net.resolve = func(tg id.ID) (wire.Contact, error) {
		return net.addRing(t, space, tg).self, fmt.Errorf("lookup failed")
	}
	x.RepairTable()
	if got, ok := x.Rows()[5]; ok {
		t.Fatalf("row 5 filled with %v by a failed resolve", got)
	}
	if got := len(net.calls); got != 0 {
		t.Fatalf("empty-row repairs issued calls %v, want none", net.calls)
	}
}

// TestJoinWalkCopiesNeighborhood: a joiner walks from a far bootstrap
// to the numerically closest node and ends with its true leaves and
// every row that node's rows can fill.
func TestJoinWalkCopiesNeighborhood(t *testing.T) {
	net, rs := convergedRing(t)
	space := rs[0].space
	j := net.addRing(t, space, rs[0].self.ID+1000)
	if err := j.Join(rs[8].self.Addr); err != nil {
		t.Fatal(err)
	}
	if got := net.count(j, wire.TFindSucc, ""); got < 2 {
		t.Fatalf("join from across the ring took %d find-successor steps, want a walk", got)
	}

	// Leaves: the 4 nearest members on each side of the joiner.
	n := len(rs)
	cw, ccw := j.Leaves()
	for i := 0; i < 4; i++ {
		if want := rs[1+i].self.ID; i >= len(cw) || cw[i].ID != want {
			t.Fatalf("clockwise leaves %v, want %d at %d", cw, want, i)
		}
		if want := rs[(n-i)%n].self.ID; i >= len(ccw) || ccw[i].ID != want {
			t.Fatalf("counter-clockwise leaves %v, want %d at %d", ccw, want, i)
		}
	}
	// Rows: rs[0] shares a longer prefix with the joiner than with any
	// other node, so each of rs[0]'s rows is one of the joiner's, and
	// rs[0] itself fills the row of their common prefix.
	cpl := space.CommonPrefixLen(j.self.ID, rs[0].self.ID)
	rows := j.Rows()
	for l := range rs[0].Rows() {
		if _, ok := rows[l]; !ok && l < cpl {
			t.Errorf("joiner row %d empty, bootstrap neighborhood has it", l)
		}
	}
	if got, ok := rows[cpl]; !ok || got.ID != rs[0].self.ID {
		t.Errorf("joiner row %d holds %v (%t), want %d", cpl, got, ok, rs[0].self.ID)
	}
}

// TestLeafProbeRespOmitsRequester: a leaf-probe reply lists every leaf
// but the requester; a requester outside the leaf set, or an anonymous
// one, gets the whole leaf set.
func TestLeafProbeRespOmitsRequester(t *testing.T) {
	_, rs := convergedRing(t)
	for i, x := range rs {
		cw, ccw := x.Leaves()
		leaves := append(cw, ccw...)
		probe := func(from wire.Contact) []wire.Contact {
			resp := &wire.Message{}
			if !x.HandleRequest(&wire.Message{Type: wire.TLeafProbe, From: from}, resp) {
				t.Fatal("TLeafProbe not handled")
			}
			if resp.Type != wire.TLeafProbeResp {
				t.Fatalf("reply type %d, want TLeafProbeResp", resp.Type)
			}
			return resp.Leaves
		}
		for _, lf := range leaves {
			got := probe(lf)
			if listsContact(got, lf.ID) {
				t.Errorf("node %d's reply to leaf %d lists the requester: %v", x.self.ID, lf.ID, got)
			}
			if len(got) != len(leaves)-1 {
				t.Errorf("node %d's reply to leaf %d has %d leaves, want %d", x.self.ID, lf.ID, len(got), len(leaves)-1)
			}
		}
		// rs[i+8] sits across the ring, beyond both leaf sides.
		for _, from := range []wire.Contact{{}, rs[(i+8)%len(rs)].self} {
			if got := probe(from); len(got) != len(leaves) {
				t.Errorf("node %d's reply to non-leaf %v has %d leaves, want %d", x.self.ID, from, len(got), len(leaves))
			}
		}
	}
}

// TestRepairTableSkipsHeardRow: a row entry the runtime heard from
// within the period passes RepairTable's check without a ping.
func TestRepairTableSkipsHeardRow(t *testing.T) {
	net, rs := convergedRing(t)
	x := rs[0]
	row0, ok := x.Rows()[0]
	if !ok {
		t.Fatal("setup: row 0 is empty")
	}
	net.heard[row0.Addr] = true
	x.RepairTable()
	if got := len(net.calls); got != 0 {
		t.Fatalf("repair of a heard row issued calls %v, want none", net.calls)
	}
	if got, ok := x.Rows()[0]; !ok || got.ID != row0.ID {
		t.Fatalf("heard row 0 entry %d replaced by %v", row0.ID, got)
	}
}

// BenchmarkStabilizePastry prices one maintenance round — a Stabilize
// and a RepairTable call — on the converged 16-node fake ring: RPCs
// issued (rpcs/round), liveness pings among them (pings/round), and the
// CPU and allocations of the round itself. In the heard case the
// runtime has heard from every contact within the period, and the round
// must ping nobody.
func BenchmarkStabilizePastry(b *testing.B) {
	for _, heard := range []bool{false, true} {
		name := "unheard"
		if heard {
			name = "heard"
		}
		b.Run(name, func(b *testing.B) {
			net, rs := convergedRing(b)
			x := rs[0]
			if heard {
				for addr := range net.rings {
					net.heard[addr] = true
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Stabilize()
				x.RepairTable()
			}
			b.StopTimer()
			rpcs := 0
			for c, k := range net.calls {
				if c.from == x.self.Addr {
					rpcs += k
				}
			}
			pings := net.count(x, wire.TPing, "")
			b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/round")
			b.ReportMetric(float64(pings)/float64(b.N), "pings/round")
			if heard && pings != 0 {
				b.Fatalf("all contacts heard, yet %d liveness pings", pings)
			}
		})
	}
}
