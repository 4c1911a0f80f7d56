package node

// The runtime's single aux-selection path (selectAux: one window, the
// geometry's SelectAux) against the per-geometry policies it replaced.
// Each geometry used to pair its Routing with an auxPolicy owning its
// own window and core copy; those three types are kept below, as they
// were, as the reference the single path must reproduce.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"peercache/internal/core"
	"peercache/internal/freq"
	"peercache/internal/id"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// auxPolicyRef is the per-geometry selection contract the runtime used
// to drive (ring.AuxMaintainer plus ring.QoSSelector).
type auxPolicyRef interface {
	Observe(key id.ID)
	Rotate()
	SetCore(core []id.ID) error
	Select() ([]id.ID, error)
	SelectQoS(cost func(id.ID) (float64, bool), bound func(id.ID) (uint, bool)) ([]id.ID, error)
}

// chordPolicyRef is chordring's auxPolicy: core.ChordMaintainer over a
// rotating window, and the Section V-C DP on the window for QoS. The
// maintainer used to read the window directly; here it is rebuilt per
// Select and the window replayed into it, which leaves its drift gate —
// the one thing the single path deliberately drops — no cached
// selection to serve.
type chordPolicyRef struct {
	window *freq.Shared
	space  id.Space
	self   id.ID
	k      int
	core   []id.ID
}

func (a *chordPolicyRef) Observe(key id.ID) { a.window.Observe(key) }
func (a *chordPolicyRef) Rotate()           { a.window.Rotate() }

func (a *chordPolicyRef) SetCore(ids []id.ID) error {
	a.core = append(ids[:0:0], ids...)
	return nil
}

func (a *chordPolicyRef) Select() ([]id.ID, error) {
	m, err := core.NewChordMaintainer(a.space, a.self, a.core, a.k, 1)
	if err != nil {
		return nil, err
	}
	for _, e := range a.window.Snapshot() {
		for i := uint64(0); i < e.Count; i++ {
			m.Observe(e.Peer)
		}
	}
	res, err := m.Select()
	if err != nil {
		return nil, err
	}
	return res.Aux, nil
}

func (a *chordPolicyRef) SelectQoS(cost func(id.ID) (float64, bool), bound func(id.ID) (uint, bool)) ([]id.ID, error) {
	peers, bounds := core.QoSInstance(a.window.Snapshot(), a.self, a.core, cost, bound)
	res, err := core.SelectChordQoS(a.space, a.self, a.core, peers, a.k, bounds)
	if err != nil {
		return nil, err
	}
	return res.Aux, nil
}

// pastryPolicyRef is pastryring's auxPolicy: core.PastryMaintainer
// rebuilt from the window on each Select.
type pastryPolicyRef struct {
	space  id.Space
	self   id.ID
	k      int
	window *freq.Shared
	core   []id.ID
}

func (a *pastryPolicyRef) Observe(key id.ID) { a.window.Observe(key) }
func (a *pastryPolicyRef) Rotate()           { a.window.Rotate() }

func (a *pastryPolicyRef) SetCore(ids []id.ID) error {
	a.core = append(ids[:0:0], ids...)
	return nil
}

func (a *pastryPolicyRef) Select() ([]id.ID, error) {
	coreSet := make(map[id.ID]bool, len(a.core))
	for _, c := range a.core {
		coreSet[c] = true
	}
	var peers []core.Peer
	for _, e := range a.window.Snapshot() {
		if e.Count == 0 || e.Peer == a.self || coreSet[e.Peer] {
			continue
		}
		peers = append(peers, core.Peer{ID: e.Peer, Freq: float64(e.Count)})
	}
	m, err := core.NewPastryMaintainer(a.space, a.core, peers, a.k)
	if err != nil {
		return nil, err
	}
	return m.Select().Aux, nil
}

func (a *pastryPolicyRef) SelectQoS(cost func(id.ID) (float64, bool), bound func(id.ID) (uint, bool)) ([]id.ID, error) {
	peers, bounds := core.QoSInstance(a.window.Snapshot(), a.self, a.core, cost, bound)
	res, err := core.SelectPastryQoS(a.space, a.core, peers, a.k, bounds)
	if err != nil {
		return nil, err
	}
	return res.Aux, nil
}

// kadPolicyRef is kadring's auxPolicy: core.KademliaMaintainer rebuilt
// from the window on each Select, the Pastry DP for QoS.
type kadPolicyRef struct {
	space  id.Space
	self   id.ID
	k      int
	window *freq.Shared
	core   []id.ID
}

func (a *kadPolicyRef) Observe(key id.ID) { a.window.Observe(key) }
func (a *kadPolicyRef) Rotate()           { a.window.Rotate() }

func (a *kadPolicyRef) SetCore(ids []id.ID) error {
	a.core = append(ids[:0:0], ids...)
	return nil
}

func (a *kadPolicyRef) Select() ([]id.ID, error) {
	coreSet := make(map[id.ID]bool, len(a.core))
	for _, c := range a.core {
		coreSet[c] = true
	}
	var peers []core.Peer
	for _, e := range a.window.Snapshot() {
		if e.Count == 0 || e.Peer == a.self || coreSet[e.Peer] {
			continue
		}
		peers = append(peers, core.Peer{ID: e.Peer, Freq: float64(e.Count)})
	}
	m, err := core.NewKademliaMaintainer(a.space, a.core, peers, a.k)
	if err != nil {
		return nil, err
	}
	return m.Select().Aux, nil
}

func (a *kadPolicyRef) SelectQoS(cost func(id.ID) (float64, bool), bound func(id.ID) (uint, bool)) ([]id.ID, error) {
	peers, bounds := core.QoSInstance(a.window.Snapshot(), a.self, a.core, cost, bound)
	res, err := core.SelectPastryQoS(a.space, a.core, peers, a.k, bounds)
	if err != nil {
		return nil, err
	}
	return res.Aux, nil
}

// selectRef is the runtime's old selection step over a policy: plain
// Select, or SelectQoS with the bounds dropped on infeasibility.
func selectRef(a auxPolicyRef, qos bool, cost func(id.ID) (float64, bool), bound func(id.ID) (uint, bool)) ([]id.ID, error) {
	if !qos {
		return a.Select()
	}
	ids, err := a.SelectQoS(cost, bound)
	if errors.Is(err, core.ErrInfeasible) {
		ids, err = a.SelectQoS(cost, nil)
	}
	return ids, err
}

// fixedCore is a geometry whose core set the test dictates.
type fixedCore struct {
	ring.Routing
	core []id.ID
}

func (f *fixedCore) CoreIDs() []id.ID { return append([]id.ID(nil), f.core...) }

// selectionNode is a Node holding only what selectAux reads — the
// geometry (its core set pinned by the returned fixedCore), the window,
// the config and the latency tables — with no transport behind it.
func selectionNode(t *testing.T, factory ring.Factory, space id.Space, self wire.Contact, k int) (*Node, *fixedCore) {
	t.Helper()
	rt, err := factory(quickHost{space: space, self: self}, ring.Options{
		NeighborListLen: 4,
		BucketSize:      4,
		MaxLookupHops:   16,
	})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	fc := &fixedCore{Routing: rt}
	n := &Node{
		cfg:    Config{Space: space, ID: self.ID, AuxCount: k, AuxQoSDelayBound: 100 * time.Millisecond},
		self:   self,
		rt:     fc,
		addrs:  make(map[id.ID]string),
		peers:  make(map[string]*peer),
		window: freq.NewShared(auxWindowBuckets),
	}
	return n, fc
}

// quickHost is the minimal ring.Host the geometry factories need
// (factories perform no I/O).
type quickHost struct {
	space id.Space
	self  wire.Contact
}

func (h quickHost) Self() wire.Contact { return h.self }
func (h quickHost) Space() id.Space    { return h.space }
func (h quickHost) Call(addr string, req *wire.Message) (*wire.Message, error) {
	return nil, fmt.Errorf("quickhost: no rpc")
}
func (h quickHost) Send(addr string, m *wire.Message) {}
func (h quickHost) Resolve(target id.ID) (wire.Contact, int, error) {
	return wire.Contact{}, 0, fmt.Errorf("quickhost: no resolve")
}
func (h quickHost) Note(c wire.Contact)    {}
func (h quickHost) Alive(addr string) bool { return false }

// TestAuxSelectionMatchesOldPolicies drives the single path and the
// old policy of each geometry through the same seeded sequences of
// observations, window rotations and core changes, for k ∈ {0, 1, 3, 8},
// with and without QoS (random measured RTTs, some above the delay
// bound), comparing after every step. Pastry and Kademlia must select
// identical id sets. Chord must be objective-equal under core.EvalChord:
// its old path fed SelectChordFast normalized frequencies with core
// peers included and the core in map order, so ties may fall
// differently.
func TestAuxSelectionMatchesOldPolicies(t *testing.T) {
	space := id.NewSpace(8)
	self := wire.Contact{ID: 0x5a, Addr: "mem/self"}
	for _, g := range qosGeometries {
		t.Run(g.name, func(t *testing.T) {
			steps := 0
			for seed := int64(1); seed <= 40; seed++ {
				for _, k := range []int{0, 1, 3, 8} {
					for _, qos := range []bool{false, true} {
						steps += runSelectionSequence(t, g.name, g.factory, space, self, k, qos, seed)
					}
				}
			}
			if steps < 1000 {
				t.Fatalf("only %d compared selections returned a set; the sequences are too thin", steps)
			}
		})
	}
}

// runSelectionSequence runs one seeded sequence and returns how many
// steps both sides answered with a selection.
func runSelectionSequence(t *testing.T, geom string, factory ring.Factory, space id.Space, self wire.Contact, k int, qos bool, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*131 + int64(k)))
	n, fc := selectionNode(t, factory, space, self, k)
	n.auxQoS.Store(qos)
	var ref auxPolicyRef
	switch geom {
	case "chord":
		ref = &chordPolicyRef{window: freq.NewShared(auxWindowBuckets), space: space, self: self.ID, k: k}
	case "pastry":
		ref = &pastryPolicyRef{window: freq.NewShared(auxWindowBuckets), space: space, self: self.ID, k: k}
	default:
		ref = &kadPolicyRef{window: freq.NewShared(auxWindowBuckets), space: space, self: self.ID, k: k}
	}
	// A small id pool makes observations repeat, overlap the core and
	// hit self.
	pool := make([]id.ID, 24)
	for i := range pool {
		pool[i] = id.ID(rng.Intn(int(space.Size())))
	}
	pool[0] = self.ID
	if qos {
		for _, x := range pool[1:] {
			if rng.Intn(3) > 0 && x != self.ID {
				rtt := time.Duration(1+rng.Intn(200)) * time.Millisecond
				n.observeRTT(wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}, rtt, true)
			}
		}
	}
	setCore := func() {
		var ids []id.ID
		for i := rng.Intn(7); i > 0; i-- {
			if x := pool[rng.Intn(len(pool))]; x != self.ID && !slices.Contains(ids, x) {
				ids = append(ids, x)
			}
		}
		fc.core = ids
		if err := ref.SetCore(ids); err != nil {
			t.Fatalf("SetCore: %v", err)
		}
	}
	setCore()
	answered := 0
	for step := 0; step < 30; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			for i := 1 + rng.Intn(6); i > 0; i-- {
				x := pool[rng.Intn(len(pool))]
				n.window.Observe(x)
				ref.Observe(x)
			}
		case op < 8:
			n.window.Rotate()
			ref.Rotate()
		default:
			setCore()
		}
		got, gotErr := n.selectAux()
		want, wantErr := selectRef(ref, qos, n.qosCost, n.qosBound)
		where := fmt.Sprintf("seed %d k %d qos %t step %d core %v", seed, k, qos, step, fc.core)
		if !errors.Is(gotErr, wantErr) && (gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, reference %v", where, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		answered++
		if geom != "chord" || qos {
			if !slices.Equal(got, want) {
				t.Fatalf("%s: selected %v, reference %v", where, got, want)
			}
			continue
		}
		peers := auxPeers(n.window.Snapshot(), self.ID, fc.core)
		a := core.EvalChord(space, self.ID, fc.core, peers, got)
		b := core.EvalChord(space, self.ID, fc.core, peers, want)
		if a != b && math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
			t.Fatalf("%s: objective %g (%v), reference %g (%v)", where, a, got, b, want)
		}
	}
	return answered
}
