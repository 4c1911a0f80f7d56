// Package freq tracks per-peer access frequencies at a node, the input to
// the auxiliary-neighbor selection algorithms.
//
// Section III of the paper: frequencies "can be easily maintained by s
// based on past history of accesses within a time window", and when the
// number of accessed nodes is large, "a node can simply store the top-n
// frequent nodes ... using standard streaming algorithms". The package
// provides both: an Exact counter table and a SpaceSaving top-N sketch
// (Metwally, Agrawal, El Abbadi) with the usual guarantee that every peer
// whose true count exceeds N/capacity is monitored.
package freq

import (
	"container/heap"
	"fmt"
	"sort"

	"peercache/internal/id"
)

// Entry is one peer's observed access count. For SpaceSaving counters the
// Count may overestimate the true count by at most Err.
type Entry struct {
	Peer  id.ID
	Count uint64
	Err   uint64
}

// Counter is the access-frequency tracking interface consumed by the
// selection layer.
type Counter interface {
	// Observe records one query destined for peer p.
	Observe(p id.ID)
	// Total returns the number of observations recorded.
	Total() uint64
	// Snapshot returns the tracked peers ordered by descending count
	// (ties broken by ascending id, so snapshots are deterministic).
	Snapshot() []Entry
	// Reset clears all state, starting a fresh observation window.
	Reset()
}

// Exact counts every distinct peer exactly. Memory grows with the number
// of distinct peers observed.
type Exact struct {
	counts map[id.ID]uint64
	total  uint64
}

// NewExact returns an empty exact counter.
func NewExact() *Exact {
	return &Exact{counts: make(map[id.ID]uint64)}
}

// Observe implements Counter.
func (e *Exact) Observe(p id.ID) {
	e.counts[p]++
	e.total++
}

// ObserveN records n queries for p in one call.
func (e *Exact) ObserveN(p id.ID, n uint64) {
	if n == 0 {
		return
	}
	e.counts[p] += n
	e.total += n
}

// Total implements Counter.
func (e *Exact) Total() uint64 { return e.total }

// Count returns the exact count for p (0 if never observed).
func (e *Exact) Count(p id.ID) uint64 { return e.counts[p] }

// Distinct returns the number of distinct peers observed.
func (e *Exact) Distinct() int { return len(e.counts) }

// Snapshot implements Counter.
func (e *Exact) Snapshot() []Entry { return sortedEntries(e.counts) }

// sortedEntries lists exact counts in Snapshot order.
func sortedEntries(counts map[id.ID]uint64) []Entry {
	out := make([]Entry, 0, len(counts))
	for p, c := range counts {
		out = append(out, Entry{Peer: p, Count: c})
	}
	sortEntries(out)
	return out
}

// Reset implements Counter.
func (e *Exact) Reset() {
	e.counts = make(map[id.ID]uint64)
	e.total = 0
}

// SpaceSaving is the Space-Saving top-N streaming sketch. It monitors at
// most capacity peers using O(capacity) memory. Guarantees, with N the
// number of observations: every peer with true count > N/capacity is
// monitored, and for each monitored peer,
// trueCount <= Count <= trueCount + Err with Err <= N/capacity.
type SpaceSaving struct {
	capacity int
	total    uint64
	byPeer   map[id.ID]*ssEntry
	h        ssHeap
}

type ssEntry struct {
	peer  id.ID
	count uint64
	err   uint64
	index int // position in the heap
}

// NewSpaceSaving returns a sketch monitoring at most capacity peers. It
// panics if capacity < 1.
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		panic(fmt.Sprintf("freq: SpaceSaving capacity %d", capacity))
	}
	return &SpaceSaving{
		capacity: capacity,
		byPeer:   make(map[id.ID]*ssEntry, capacity),
	}
}

// Capacity returns the maximum number of monitored peers.
func (s *SpaceSaving) Capacity() int { return s.capacity }

// Observe implements Counter.
func (s *SpaceSaving) Observe(p id.ID) {
	s.total++
	if e, ok := s.byPeer[p]; ok {
		e.count++
		heap.Fix(&s.h, e.index)
		return
	}
	if len(s.h) < s.capacity {
		e := &ssEntry{peer: p, count: 1}
		s.byPeer[p] = e
		heap.Push(&s.h, e)
		return
	}
	// Evict the minimum-count peer; the newcomer inherits its count as
	// the standard Space-Saving overestimate.
	min := s.h[0]
	delete(s.byPeer, min.peer)
	min.err = min.count
	min.count++
	min.peer = p
	s.byPeer[p] = min
	heap.Fix(&s.h, 0)
}

// Total implements Counter.
func (s *SpaceSaving) Total() uint64 { return s.total }

// Monitored returns the number of peers currently tracked.
func (s *SpaceSaving) Monitored() int { return len(s.h) }

// Snapshot implements Counter.
func (s *SpaceSaving) Snapshot() []Entry {
	out := make([]Entry, 0, len(s.h))
	for _, e := range s.h {
		out = append(out, Entry{Peer: e.peer, Count: e.count, Err: e.err})
	}
	sortEntries(out)
	return out
}

// Reset implements Counter.
func (s *SpaceSaving) Reset() {
	s.total = 0
	s.byPeer = make(map[id.ID]*ssEntry, s.capacity)
	s.h = nil
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Count != es[j].Count {
			return es[i].Count > es[j].Count
		}
		return es[i].Peer < es[j].Peer
	})
}

// ssHeap is a min-heap by count.
type ssHeap []*ssEntry

func (h ssHeap) Len() int           { return len(h) }
func (h ssHeap) Less(i, j int) bool { return h[i].count < h[j].count }
func (h ssHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *ssHeap) Push(x any)        { e := x.(*ssEntry); e.index = len(*h); *h = append(*h, e) }
func (h *ssHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
