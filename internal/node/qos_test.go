package node

// Conformance suite for QoS-aware aux selection on the live wiring
// path, across all three geometries:
//
//   - TestAuxQoSBoundsRespected: a peer whose measured RTT exceeds
//     Config.AuxQoSDelayBound must end up with a direct aux pointer
//     (geometry distance 0) after recomputeAux — and demonstrably does
//     NOT when AuxQoS is off, so the test is non-vacuous: disabling the
//     feature makes the bound-conformance assertion fail.
//
//   - TestQoSNoCostsEqualsUnconstrainedLive: property test (quick) that
//     the runtime's QoS selection with no costs and no bounds is
//     objective-equal to its unconstrained selection on every geometry —
//     the live-path mirror of core's TestQoSEmptyBoundsEqualsUnconstrained.

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"peercache/internal/core"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node/chordring"
	"peercache/internal/node/kadring"
	"peercache/internal/node/pastryring"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

var qosGeometries = []struct {
	name    string
	factory ring.Factory
	eval    func(space id.Space, self id.ID, coreIDs []id.ID, peers []core.Peer, aux []id.ID) float64
}{
	{"chord", chordring.New, func(space id.Space, self id.ID, coreIDs []id.ID, peers []core.Peer, aux []id.ID) float64 {
		return core.EvalChord(space, self, coreIDs, peers, aux)
	}},
	{"pastry", pastryring.New, func(space id.Space, self id.ID, coreIDs []id.ID, peers []core.Peer, aux []id.ID) float64 {
		return core.EvalPastry(space, coreIDs, peers, aux)
	}},
	{"kademlia", kadring.New, func(space id.Space, self id.ID, coreIDs []id.ID, peers []core.Peer, aux []id.ID) float64 {
		return core.EvalKademlia(space, coreIDs, peers, aux)
	}},
}

// observeKeys records count lookups for key the way the runtime's
// lookup path does.
func observeKeys(n *Node, key id.ID, count int) {
	for i := 0; i < count; i++ {
		n.window.Observe(key)
	}
}

func auxContains(n *Node, x id.ID) bool {
	for _, a := range n.rt.Aux() {
		if a.ID == x {
			return true
		}
	}
	return false
}

// The white-box bound-conformance test. One far peer (measured RTT
// above the delay bound) with light traffic competes against three
// near peers with heavy traffic for a 2-slot aux budget. Hop-greedy
// selection (AuxQoS off) spends both slots on the busy near peers,
// leaving the far peer's bound violated; the QoS selection must spend
// a slot on a direct pointer to the far peer. Flipping AuxQoS off and
// asserting the bound again fails — the feature, not the workload, is
// what satisfies the bound.
func TestAuxQoSBoundsRespected(t *testing.T) {
	const (
		farRTT  = 200 * time.Millisecond // above the 100ms default bound
		nearRTT = 5 * time.Millisecond
	)
	// The far peer sits just before self on the ring — past every heavy
	// target clockwise — so a pointer to it buys hop-greedy selection
	// nothing; only its delay bound can earn it a slot.
	far := id.ID(0xF000)
	near := []id.ID{0x2000, 0x4000, 0x8000}

	for _, g := range qosGeometries {
		t.Run(g.name, func(t *testing.T) {
			nw := memnet.New(1)
			defer nw.CloseAll()
			n, err := Start(Config{
				Space:            id.NewSpace(16),
				ID:               0,
				Addr:             "mem/0",
				NewRing:          g.factory,
				AuxCount:         2,
				AuxQoS:           true,
				Listen:           func(addr string) (PacketConn, error) { return nw.Listen(addr) },
				DisableHealProbe: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()

			for _, x := range append(near, far) {
				c := wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}
				n.noteContact(c)
				rtt := nearRTT
				if x == far {
					rtt = farRTT
				}
				n.observeRTT(c, rtt, true)
			}
			for _, x := range near {
				observeKeys(n, x, 100)
			}
			observeKeys(n, far, 1)

			if _, err := n.RecomputeAux(); err != nil {
				t.Fatalf("QoS recompute: %v", err)
			}
			// The bound: every peer with RTT above AuxQoSDelayBound must
			// sit at geometry distance 0 from the aux set, i.e. own a
			// direct pointer.
			if !auxContains(n, far) {
				t.Fatalf("far peer (RTT %v > bound) missing from aux %v: delay bound violated", farRTT, n.rt.Aux())
			}
			m := n.Metrics()
			if m.AuxQoSSelects == 0 {
				t.Fatal("AuxQoSSelects = 0: the QoS selection never ran")
			}
			if m.AuxQoSInfeasible != 0 {
				t.Fatalf("AuxQoSInfeasible = %d: bounds should be satisfiable here", m.AuxQoSInfeasible)
			}
			if !m.AuxQoS {
				t.Fatal("Metrics.AuxQoS = false with the feature on")
			}

			// Non-vacuity: the same workload with AuxQoS off violates the
			// bound — the hop-greedy selection spends both slots on the
			// busy near peers.
			n.SetAuxQoS(false)
			if _, err := n.RecomputeAux(); err != nil {
				t.Fatalf("hop-greedy recompute: %v", err)
			}
			if auxContains(n, far) {
				t.Fatalf("hop-greedy aux %v contains the far peer: the conformance assertion would pass vacuously", n.rt.Aux())
			}
		})
	}
}

// With every cost unknown and every bound absent, the runtime's QoS
// selection must be objective-equal to its unconstrained selection on
// the same observations — for random workloads and random core sets,
// through selectAux and each geometry's SelectAux.
func TestQoSNoCostsEqualsUnconstrainedLive(t *testing.T) {
	space := id.NewSpace(8)
	self := wire.Contact{ID: 0, Addr: "mem/0"}

	for _, g := range qosGeometries {
		t.Run(g.name, func(t *testing.T) {
			property := func(obs []uint8, coreRaw []uint8) bool {
				n, fc := selectionNode(t, g.factory, space, self, 3)
				coreSet := make(map[id.ID]bool)
				var coreIDs []id.ID
				for _, c := range coreRaw {
					x := id.ID(c)
					if x == self.ID || coreSet[x] {
						continue
					}
					coreSet[x] = true
					coreIDs = append(coreIDs, x)
				}
				sort.Slice(coreIDs, func(i, j int) bool { return coreIDs[i] < coreIDs[j] })
				fc.core = coreIDs
				counts := make(map[id.ID]uint64)
				for _, o := range obs {
					n.window.Observe(id.ID(o))
					counts[id.ID(o)]++
				}

				n.SetAuxQoS(true)
				qosAux, qosErr := n.selectAux()
				n.SetAuxQoS(false)
				plainAux, plainErr := n.selectAux()
				if (qosErr != nil) != (plainErr != nil) {
					t.Logf("error mismatch: qos=%v plain=%v (obs=%v core=%v)", qosErr, plainErr, obs, coreRaw)
					return false
				}
				if qosErr != nil {
					return true // both agree there is nothing to select
				}

				// Same filter the runtime applies: observed, not self, not core.
				var peers []core.Peer
				for x, c := range counts {
					if x == self.ID || coreSet[x] {
						continue
					}
					peers = append(peers, core.Peer{ID: x, Freq: float64(c)})
				}
				d := g.eval(space, self.ID, coreIDs, peers, qosAux) -
					g.eval(space, self.ID, coreIDs, peers, plainAux)
				if math.Abs(d) > 1e-9 {
					t.Logf("objective gap %g: qos %v vs plain %v (obs=%v core=%v)", d, qosAux, plainAux, obs, coreRaw)
					return false
				}
				return true
			}
			if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
