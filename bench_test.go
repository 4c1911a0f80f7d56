package peercache

// Benchmark harness: one benchmark per paper figure (scaled-down
// parameters so a -bench=. run finishes in minutes; cmd/p2pbench runs
// the full-scale reproductions) plus the ablation benches DESIGN.md
// calls out: greedy vs DP, fast vs exact Chord DP, incremental vs full
// recomputation, and sketch vs exact counting.

import (
	"fmt"
	"math/rand"
	"testing"

	"peercache/internal/chord"
	"peercache/internal/core"
	"peercache/internal/experiment"
	"peercache/internal/freq"
	"peercache/internal/id"
	"peercache/internal/pastry"
	"peercache/internal/pgrid"
	"peercache/internal/randx"
	"peercache/internal/skipgraph"
)

func benchScale() experiment.Scale {
	return experiment.Scale{
		Sizes:        []int{64, 128},
		FixedN:       128,
		Bits:         20,
		ItemsPerNode: 4,
		Warmup:       100,
		Duration:     600,
		Seed:         1,
	}
}

func benchFigure(b *testing.B, fn func(experiment.Scale) (experiment.Table, error)) {
	b.Helper()
	scale := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fn(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PastryVaryN regenerates Figure 3 (Pastry, % reduction vs
// n, alpha in {1.2, 0.91}) at bench scale.
func BenchmarkFig3PastryVaryN(b *testing.B) { benchFigure(b, experiment.Fig3) }

// BenchmarkFig4PastryVaryK regenerates Figure 4 (Pastry, % reduction vs
// k in {log n, 2 log n, 3 log n}).
func BenchmarkFig4PastryVaryK(b *testing.B) { benchFigure(b, experiment.Fig4) }

// BenchmarkFig5ChordVaryN regenerates Figure 5 (Chord, % reduction vs n,
// stable and churn).
func BenchmarkFig5ChordVaryN(b *testing.B) { benchFigure(b, experiment.Fig5) }

// BenchmarkFig6ChordVaryK regenerates Figure 6 (Chord, % reduction vs k,
// stable and churn).
func BenchmarkFig6ChordVaryK(b *testing.B) { benchFigure(b, experiment.Fig6) }

// randCorePeers builds a synthetic selection instance with n peers.
func randCorePeers(n int, bits uint, seed int64) (id.Space, id.ID, []id.ID, []core.Peer) {
	space := id.NewSpace(bits)
	rng := rand.New(rand.NewSource(seed))
	raw := randx.UniqueIDs(rng, n+9, space.Size())
	self := id.ID(raw[n+8])
	weights := randx.ZipfWeights(n, 1.2)
	perm := rng.Perm(n)
	peers := make([]core.Peer, n)
	for i := 0; i < n; i++ {
		peers[i] = core.Peer{ID: id.ID(raw[i]), Freq: weights[perm[i]] * 1e6}
	}
	coreSet := make([]id.ID, 8)
	for i := range coreSet {
		coreSet[i] = id.ID(raw[n+i])
	}
	// Guarantee a reachable successor for Chord instances.
	succ := peers[0].ID
	best := space.Gap(self, succ)
	for _, p := range peers[1:] {
		if g := space.Gap(self, p.ID); g < best {
			succ, best = p.ID, g
		}
	}
	coreSet[0] = succ
	return space, self, coreSet, peers
}

// BenchmarkPastryGreedyVsDP isolates the O(nkb) greedy algorithm against
// the O(nk²b) dynamic program on identical instances.
func BenchmarkPastryGreedyVsDP(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		space, _, coreSet, peers := randCorePeers(n, 32, int64(n))
		k := 3 * experiment.Log2(n)
		b.Run(fmt.Sprintf("greedy/n=%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectPastryGreedy(space, coreSet, peers, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dp/n=%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectPastryDP(space, coreSet, peers, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChordFastVsDP isolates the Section V-B fast algorithm against
// the O(n²k) dynamic program.
func BenchmarkChordFastVsDP(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		space, self, coreSet, peers := randCorePeers(n, 32, int64(n))
		k := experiment.Log2(n)
		b.Run(fmt.Sprintf("fast/n=%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectChordFast(space, self, coreSet, peers, k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dp/n=%d/k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectChordDP(space, self, coreSet, peers, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPastryIncremental compares the O(bk) incremental maintainer
// against a full O(nkb) recomputation per popularity change.
func BenchmarkPastryIncremental(b *testing.B) {
	const n = 2048
	space, _, coreSet, peers := randCorePeers(n, 32, 5)
	k := experiment.Log2(n)

	b.Run("incremental-update", func(b *testing.B) {
		m, err := core.NewPastryMaintainer(space, coreSet, peers, k)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := peers[rng.Intn(len(peers))]
			m.SetFreq(p.ID, p.Freq*(1+rng.Float64()))
		}
		if got := m.Select(); len(got.Aux) == 0 {
			b.Fatal("empty selection")
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		local := append([]core.Peer(nil), peers...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := rng.Intn(len(local))
			local[j].Freq *= 1 + rng.Float64()
			if _, err := core.SelectPastryGreedy(space, coreSet, local, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTopNSketch compares Space-Saving sketch maintenance against
// exact counting on a zipf stream.
func BenchmarkTopNSketch(b *testing.B) {
	alias := randx.NewAlias(randx.ZipfWeights(100000, 1.2))
	rng := randx.New(3)
	stream := make([]id.ID, 1<<16)
	for i := range stream {
		stream[i] = id.ID(alias.Sample(rng))
	}
	b.Run("space-saving-1k", func(b *testing.B) {
		s := freq.NewSpaceSaving(1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Observe(stream[i&(1<<16-1)])
		}
	})
	b.Run("exact", func(b *testing.B) {
		e := freq.NewExact()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Observe(stream[i&(1<<16-1)])
		}
	})
}

// BenchmarkRouting measures single-lookup cost in stabilized overlays.
func BenchmarkRouting(b *testing.B) {
	const n = 1024
	space := id.NewSpace(32)
	rng := randx.New(11)
	raw := randx.UniqueIDs(rng, n, space.Size())

	b.Run("chord", func(b *testing.B) {
		nw := chord.New(chord.Config{Space: space})
		for _, x := range raw {
			if _, err := nw.AddNode(id.ID(x)); err != nil {
				b.Fatal(err)
			}
		}
		nw.StabilizeAll()
		ids := nw.AliveIDs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := ids[i%len(ids)]
			key := ids[(i*7+3)%len(ids)]
			if _, err := nw.Route(from, key); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pastry", func(b *testing.B) {
		nw := pastry.New(pastry.Config{Space: space, LocalityAware: true})
		crng := randx.New(13)
		for _, x := range raw {
			if _, err := nw.AddNode(id.ID(x), pastry.Coord{X: crng.Float64(), Y: crng.Float64()}); err != nil {
				b.Fatal(err)
			}
		}
		nw.StabilizeAll()
		ids := nw.AliveIDs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := ids[i%len(ids)]
			key := ids[(i*7+3)%len(ids)]
			if _, err := nw.Route(from, key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSelectFacade measures the public-API selection path end to
// end, counters included.
func BenchmarkSelectFacade(b *testing.B) {
	rng := randx.New(17)
	c := NewCounter()
	for i := 0; i < 50000; i++ {
		c.Observe(rng.Uint64() >> 40)
	}
	peers := c.Peers()
	coreNbrs := []uint64{1, 300, 70000, 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectChord(24, 0, coreNbrs, peers, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigitSelection compares binary and hex digit selection on the
// same instance (footnote 2 of the paper).
func BenchmarkDigitSelection(b *testing.B) {
	space, _, coreSet, peers := randCorePeers(2048, 32, 21)
	for _, d := range []uint{1, 4} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SelectPastryGreedyDigits(space, coreSet, peers, 11, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOverlayBuilds measures one-time construction of the named
// alternative overlays at n = 1024.
func BenchmarkOverlayBuilds(b *testing.B) {
	rng := randx.New(23)
	raw := randx.UniqueIDs(rng, 1024, 1<<32)
	ids := make([]id.ID, len(raw))
	for i, x := range raw {
		ids[i] = id.ID(x)
	}
	b.Run("skipgraph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := skipgraph.Build(skipgraph.Config{Space: id.NewSpace(32), Seed: 1}, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pgrid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pgrid.Build(pgrid.Config{Space: id.NewSpace(32), Seed: 1}, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}
