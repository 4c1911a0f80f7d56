package freq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"peercache/internal/id"
	"peercache/internal/randx"
)

func TestExactBasics(t *testing.T) {
	e := NewExact()
	e.Observe(3)
	e.Observe(3)
	e.Observe(7)
	e.ObserveN(9, 5)
	e.ObserveN(9, 0) // no-op

	if e.Total() != 8 {
		t.Errorf("Total = %d, want 8", e.Total())
	}
	if e.Count(3) != 2 || e.Count(7) != 1 || e.Count(9) != 5 || e.Count(100) != 0 {
		t.Errorf("counts wrong: %d %d %d %d", e.Count(3), e.Count(7), e.Count(9), e.Count(100))
	}
	if e.Distinct() != 3 {
		t.Errorf("Distinct = %d, want 3", e.Distinct())
	}
	snap := e.Snapshot()
	want := []Entry{{Peer: 9, Count: 5}, {Peer: 3, Count: 2}, {Peer: 7, Count: 1}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot length %d, want %d", len(snap), len(want))
	}
	for i := range want {
		if snap[i].Peer != want[i].Peer || snap[i].Count != want[i].Count {
			t.Errorf("snap[%d] = %+v, want %+v", i, snap[i], want[i])
		}
	}
}

func TestExactSnapshotTieBreak(t *testing.T) {
	e := NewExact()
	e.Observe(5)
	e.Observe(2)
	e.Observe(9)
	snap := e.Snapshot()
	if snap[0].Peer != 2 || snap[1].Peer != 5 || snap[2].Peer != 9 {
		t.Errorf("tie break not by ascending id: %v", snap)
	}
}

func TestExactReset(t *testing.T) {
	e := NewExact()
	e.Observe(1)
	e.Reset()
	if e.Total() != 0 || e.Distinct() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	s := NewSpaceSaving(10)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Observe(id.ID(i))
		}
	}
	if s.Monitored() != 5 {
		t.Fatalf("Monitored = %d, want 5", s.Monitored())
	}
	for _, e := range s.Snapshot() {
		if e.Err != 0 {
			t.Errorf("peer %d has error %d under capacity", e.Peer, e.Err)
		}
		if e.Count != uint64(e.Peer)+1 {
			t.Errorf("peer %d count = %d, want %d", e.Peer, e.Count, uint64(e.Peer)+1)
		}
	}
}

func TestSpaceSavingCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 did not panic")
		}
	}()
	NewSpaceSaving(0)
}

// The Space-Saving guarantee: every peer with true count > N/capacity is
// monitored, and the sketch never underestimates a monitored peer.
func TestSpaceSavingGuarantees(t *testing.T) {
	const capacity = 32
	s := NewSpaceSaving(capacity)
	truth := make(map[id.ID]uint64)

	rng := rand.New(rand.NewSource(17))
	alias := randx.NewAlias(randx.ZipfWeights(500, 1.2))
	perm := rng.Perm(500)
	const n = 100000
	for i := 0; i < n; i++ {
		p := id.ID(perm[alias.Sample(rng)])
		truth[p]++
		s.Observe(p)
	}
	if s.Total() != n {
		t.Fatalf("Total = %d, want %d", s.Total(), n)
	}

	monitored := make(map[id.ID]Entry)
	for _, e := range s.Snapshot() {
		monitored[e.Peer] = e
	}
	threshold := uint64(n / capacity)
	for p, c := range truth {
		if c > threshold {
			if _, ok := monitored[p]; !ok {
				t.Errorf("heavy hitter %d (count %d > %d) not monitored", p, c, threshold)
			}
		}
	}
	for p, e := range monitored {
		if e.Count < truth[p] {
			t.Errorf("peer %d underestimated: %d < %d", p, e.Count, truth[p])
		}
		if e.Count-e.Err > truth[p] {
			t.Errorf("peer %d: count-err %d exceeds truth %d", p, e.Count-e.Err, truth[p])
		}
		if e.Err > threshold {
			t.Errorf("peer %d error %d exceeds N/capacity %d", p, e.Err, threshold)
		}
	}
	if len(monitored) > capacity {
		t.Errorf("monitored %d peers, capacity %d", len(monitored), capacity)
	}
}

func TestSpaceSavingEviction(t *testing.T) {
	s := NewSpaceSaving(2)
	s.Observe(1)
	s.Observe(1)
	s.Observe(2)
	s.Observe(3) // must evict peer 2 (count 1), newcomer gets count 2, err 1
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("monitoring %d, want 2", len(snap))
	}
	byPeer := map[id.ID]Entry{}
	for _, e := range snap {
		byPeer[e.Peer] = e
	}
	if _, ok := byPeer[2]; ok {
		t.Error("peer 2 should have been evicted")
	}
	e3, ok := byPeer[3]
	if !ok || e3.Count != 2 || e3.Err != 1 {
		t.Errorf("peer 3 entry = %+v, want count 2 err 1", e3)
	}
}

func TestSpaceSavingReset(t *testing.T) {
	s := NewSpaceSaving(4)
	for i := 0; i < 10; i++ {
		s.Observe(id.ID(i))
	}
	s.Reset()
	if s.Total() != 0 || s.Monitored() != 0 {
		t.Error("Reset did not clear state")
	}
	s.Observe(1)
	if s.Monitored() != 1 {
		t.Error("sketch unusable after Reset")
	}
}

// Exact and SpaceSaving must agree exactly when capacity covers the whole
// universe of peers.
func TestSpaceSavingMatchesExactWithFullCapacity(t *testing.T) {
	e := NewExact()
	s := NewSpaceSaving(64)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		p := id.ID(rng.Intn(64))
		e.Observe(p)
		s.Observe(p)
	}
	se, ss := e.Snapshot(), s.Snapshot()
	if len(se) != len(ss) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(se), len(ss))
	}
	for i := range se {
		if se[i].Peer != ss[i].Peer || se[i].Count != ss[i].Count || ss[i].Err != 0 {
			t.Errorf("entry %d: exact %+v vs sketch %+v", i, se[i], ss[i])
		}
	}
}

var _ Counter = (*Exact)(nil)
var _ Counter = (*SpaceSaving)(nil)

// quick property: for any observation stream, the sketch never
// underestimates a monitored peer and never exceeds its capacity.
func TestSpaceSavingQuickProperties(t *testing.T) {
	f := func(stream []uint8) bool {
		s := NewSpaceSaving(8)
		truth := map[id.ID]uint64{}
		for _, raw := range stream {
			p := id.ID(raw % 32)
			s.Observe(p)
			truth[p]++
		}
		if s.Monitored() > 8 {
			return false
		}
		for _, e := range s.Snapshot() {
			if e.Count < truth[e.Peer] {
				return false
			}
		}
		return s.Total() == uint64(len(stream))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Shared must agree with a Windowed fed the same sequence, and an
// Observe beside a Snapshot must be race-free (run under -race).
func TestSharedMatchesWindowed(t *testing.T) {
	s, w := NewShared(3), NewWindowed(3)
	for i := 0; i < 500; i++ {
		p := id.ID(i * 7 % 31)
		s.Observe(p)
		w.Observe(p)
		if i%100 == 99 {
			s.Rotate()
			w.Rotate()
		}
	}
	if s.Total() != w.Total() {
		t.Fatalf("total %d, want %d", s.Total(), w.Total())
	}
	got, want := s.Snapshot(), w.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot of %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], want[i])
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.Observe(id.ID(i % 31))
		}
	}()
	for i := 0; i < 50; i++ {
		s.Snapshot()
		s.Rotate()
	}
	<-done
}
