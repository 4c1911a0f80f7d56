package node

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node/chordring"
	"peercache/internal/node/kadring"
	"peercache/internal/node/pastryring"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// parked is a Scheduler that runs maintenance only when the test says
// so: step runs every registered job once. Between steps a node does
// only what the test calls, so a benchmark or an allocation count sees
// the lookup path alone.
type parked struct {
	mu   sync.Mutex
	jobs []func()
}

type parkedJob struct{}

func (p *parked) Every(_ time.Duration, fn func()) JobHandle {
	p.mu.Lock()
	p.jobs = append(p.jobs, fn)
	p.mu.Unlock()
	return parkedJob{}
}
func (parkedJob) Cancel() {}
func (parkedJob) Wait()   {}

func (p *parked) step() {
	p.mu.Lock()
	jobs := append([]func(){}, p.jobs...)
	p.mu.Unlock()
	for _, fn := range jobs {
		fn()
	}
}

// parkedRing boots len(ids) chord nodes (ids ascending) on one memnet,
// steps their maintenance until the ring closes in id order, and leaves
// it parked.
func parkedRing(tb testing.TB, space id.Space, ids []uint64, mod func(*Config)) ([]*Node, *memnet.Network) {
	tb.Helper()
	nw := memnet.New(1)
	sched := &parked{}
	nodes := make([]*Node, len(ids))
	for i, x := range ids {
		cfg := memConfig(nw, space, id.ID(x))
		cfg.Scheduler = sched
		if mod != nil {
			mod(&cfg)
		}
		n, err := Start(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { n.Close() })
		nodes[i] = n
		if i > 0 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				tb.Fatal(err)
			}
		}
	}
	closed := func() bool {
		for i, n := range nodes {
			if n.Successor().ID != nodes[(i+1)%len(nodes)].ID() {
				return false
			}
			if p, ok := n.Predecessor(); !ok || p.ID != nodes[(i+len(nodes)-1)%len(nodes)].ID() {
				return false
			}
		}
		return true
	}
	for round := 0; !closed(); round++ {
		if round == 200 {
			tb.Fatal("parked ring did not close in 200 maintenance rounds")
		}
		sched.step()
	}
	// A few more rounds fill the finger tables; the ring is closed, so
	// they only shorten lookups.
	for i := 0; i < 3*int(space.Bits()); i++ {
		sched.step()
	}
	return nodes, nw
}

var benchIDs = []uint64{500, 9000, 17000, 26000, 33000, 42000, 50500, 61000}

// BenchmarkLookupHealthy is the lookup race on a healthy network: an
// 8-node memnet ring with maintenance parked, Zipf-free uniform targets
// from one origin, default α.
func BenchmarkLookupHealthy(b *testing.B) {
	space := id.NewSpace(16)
	nodes, _ := parkedRing(b, space, benchIDs, nil)
	rng := rand.New(rand.NewSource(5))
	targets := make([]id.ID, 1024)
	for i := range targets {
		targets[i] = id.ID(rng.Uint64() & (space.Size() - 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nodes[0].Lookup(targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupHedged is the paper's one-hop lookup through an aux
// pointer with that hop's request lost: node 500 holds an aux pointer
// aliased to key 60000 at its owner's address, memnet drops the first
// datagram to the owner, and the race's hedge resolves the key through
// the fallback candidates' chain. The time per lookup is the hedge
// delay (the owner's RTO) plus that chain's round trips.
func BenchmarkLookupHedged(b *testing.B) {
	nodes, nw := parkedRing(b, id.NewSpace(16), benchIDs, nil)
	a, target := nodes[0], id.ID(60000)
	ownerAddr, ok := a.resolve(61000)
	if !ok {
		b.Fatal("the owner is not in the contact cache")
	}
	if err := a.Ping(ownerAddr); err != nil {
		b.Fatal(err)
	}
	a.rt.SetAux([]wire.Contact{{ID: target, Addr: ownerAddr}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.DropNext(a.Addr(), ownerAddr, 1)
		if owner, _, err := a.Lookup(target); err != nil || owner.ID != 61000 {
			b.Fatalf("lookup %d: owner %d, %v", target, owner.ID, err)
		}
	}
}

// BenchmarkRPC is one correlated round trip (Ping) between two joined
// nodes: register, encode, memnet, decode, handle, reply, wake.
func BenchmarkRPC(b *testing.B) {
	nodes, _ := parkedRing(b, id.NewSpace(16), []uint64{100, 200}, nil)
	addr := nodes[1].Addr()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nodes[0].Ping(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// tickTap parks every job like parked, and also keeps the jobs
// registered with period auxEvery in registration order: one per node,
// its aux tick (recompute, then age the frequency window).
type tickTap struct {
	parked
	auxEvery time.Duration
	ticks    []func()
}

func (s *tickTap) Every(p time.Duration, fn func()) JobHandle {
	if p == s.auxEvery {
		s.mu.Lock()
		s.ticks = append(s.ticks, fn)
		s.mu.Unlock()
	}
	return s.parked.Every(p, fn)
}

// benchRecomputeAux times one aux tick of a node in an 8-node memnet
// overlay of the given geometry with k = 8 and maintenance parked.
// Before each tick, untimed, the node looks up 64 Zipf(1.2) keys from a
// 256-key pool whose popularity ranking moves every tick, so the window
// a tick selects from (four ticks of lookups) has always changed
// significantly since the last one and every tick runs a selection.
func benchRecomputeAux(b *testing.B, factory ring.Factory) {
	space := id.NewSpace(16)
	nw := memnet.New(1)
	sched := &tickTap{auxEvery: 1234 * time.Millisecond}
	nodes := make([]*Node, len(benchIDs))
	for i, x := range benchIDs {
		cfg := memConfig(nw, space, id.ID(x))
		cfg.NewRing = factory
		cfg.AuxCount = 8
		cfg.AuxEvery = sched.auxEvery
		cfg.Scheduler = sched
		n, err := Start(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		nodes[i] = n
		if i > 0 {
			if err := n.Join(nodes[0].Addr()); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 4*int(space.Bits()); i++ {
		sched.step()
	}
	n, tick := nodes[0], sched.ticks[0]
	rng := rand.New(rand.NewSource(7))
	keys := make([]id.ID, 256)
	for i := range keys {
		keys[i] = id.ID(rng.Uint64() & (space.Size() - 1))
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(keys)-1))
	lookups := func(shift int) {
		for j := 0; j < 64; j++ {
			if _, _, err := n.Lookup(keys[(int(zipf.Uint64())+shift)%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for w := 0; w < 4; w++ {
		lookups(w * 37)
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lookups((i + 4) * 37)
		b.StartTimer()
		tick()
	}
	b.StopTimer()
	if len(n.Aux()) == 0 {
		b.Fatal("no aux entries installed: the ticks selected nothing")
	}
}

func BenchmarkRecomputeAuxChord(b *testing.B)    { benchRecomputeAux(b, chordring.New) }
func BenchmarkRecomputeAuxPastry(b *testing.B)   { benchRecomputeAux(b, pastryring.New) }
func BenchmarkRecomputeAuxKademlia(b *testing.B) { benchRecomputeAux(b, kadring.New) }

// contactBench runs fn on one parked node over a contact cache of 64
// measured, heard peers, from GOMAXPROCS goroutines at once: the
// read-loop paths that every request and reply crosses, contending on
// the contact cache's lock the way a node's read loop and its lookups do.
func contactBench(b *testing.B, fn func(n *Node, c wire.Contact)) {
	nw := memnet.New(1)
	defer nw.CloseAll()
	cfg := memConfig(nw, id.NewSpace(16), 1)
	cfg.Scheduler = &parked{}
	cfg.DisableHealProbe = true
	n, err := Start(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	contacts := make([]wire.Contact, 64)
	for i := range contacts {
		x := id.ID(100 + i)
		contacts[i] = wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}
		n.observeRTT(contacts[i], time.Millisecond, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			fn(n, contacts[i%len(contacts)])
		}
	})
}

// BenchmarkNoteHeard is a handled request's note of its sender.
func BenchmarkNoteHeard(b *testing.B) {
	contactBench(b, func(n *Node, c wire.Contact) { n.note(c, true) })
}

// BenchmarkNoteHearsay is a parsed response's note of a contact it
// names.
func BenchmarkNoteHearsay(b *testing.B) {
	contactBench(b, func(n *Node, c wire.Contact) { n.note(c, false) })
}

// BenchmarkObserveRTT is a correlated reply's RTT sample.
func BenchmarkObserveRTT(b *testing.B) {
	contactBench(b, func(n *Node, c wire.Contact) { n.observeRTT(c, time.Millisecond, true) })
}
