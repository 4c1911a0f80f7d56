package freq

import (
	"sync"

	"peercache/internal/id"
)

// Windowed is a rotating-bucket counter: observations land in the
// current bucket, Rotate retires the oldest of the configured buckets,
// and Snapshot/Total aggregate over all live buckets. It realizes the
// paper's "past history of accesses within a time window" (Section III)
// for the live runtime, where traffic shifts over time and a node must
// forget peers it no longer queries — an Exact counter would keep cold
// peers in the candidate set forever. The caller drives rotation (the
// live node ties it to its recompute ticker), which keeps this package
// free of clocks and fully deterministic under test.
type Windowed struct {
	buckets []*Exact
	cur     int
}

// NewWindowed returns a counter aggregating over n rotating buckets
// (n >= 1; with n == 1 each Rotate is a full reset). Observations are
// forgotten after n rotations.
func NewWindowed(n int) *Windowed {
	if n < 1 {
		n = 1
	}
	w := &Windowed{buckets: make([]*Exact, n)}
	for i := range w.buckets {
		w.buckets[i] = NewExact()
	}
	return w
}

// Observe implements Counter.
func (w *Windowed) Observe(p id.ID) { w.buckets[w.cur].Observe(p) }

// Rotate retires the oldest bucket and starts a fresh one; observations
// older than len(buckets) rotations disappear from Snapshot and Total.
func (w *Windowed) Rotate() {
	w.cur = (w.cur + 1) % len(w.buckets)
	w.buckets[w.cur] = NewExact()
}

// Total implements Counter: the number of observations still in the
// window.
func (w *Windowed) Total() uint64 {
	var t uint64
	for _, b := range w.buckets {
		t += b.Total()
	}
	return t
}

// Count returns p's observation count within the window.
func (w *Windowed) Count(p id.ID) uint64 {
	var c uint64
	for _, b := range w.buckets {
		c += b.Count(p)
	}
	return c
}

// Snapshot implements Counter, aggregating the live buckets.
func (w *Windowed) Snapshot() []Entry { return sortedEntries(w.merged()) }

// merged sums the live buckets' counts per peer.
func (w *Windowed) merged() map[id.ID]uint64 {
	merged := make(map[id.ID]uint64)
	for _, b := range w.buckets {
		for p, c := range b.counts {
			merged[p] += c
		}
	}
	return merged
}

// Reset implements Counter, clearing every bucket.
func (w *Windowed) Reset() {
	for i := range w.buckets {
		w.buckets[i] = NewExact()
	}
	w.cur = 0
}

// Shared is a Windowed that observers and a selector may use from
// different goroutines: every method takes one mutex for its own
// duration. The live node records a lookup on the caller's goroutine
// while an aux recomputation — Snapshot, then a selection that runs
// for a large fraction of a millisecond — is under way on another, and
// the observer must not wait the selection out.
type Shared struct {
	mu sync.Mutex
	w  *Windowed
}

// NewShared returns a Shared over n rotating buckets (see NewWindowed).
func NewShared(n int) *Shared { return &Shared{w: NewWindowed(n)} }

// Observe implements Counter.
func (s *Shared) Observe(p id.ID) {
	s.mu.Lock()
	s.w.Observe(p)
	s.mu.Unlock()
}

// Rotate retires the oldest bucket (see Windowed.Rotate).
func (s *Shared) Rotate() {
	s.mu.Lock()
	s.w.Rotate()
	s.mu.Unlock()
}

// Total implements Counter.
func (s *Shared) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Total()
}

// Snapshot implements Counter. Only the copy of the counts holds the
// lock; ordering them does not.
func (s *Shared) Snapshot() []Entry {
	s.mu.Lock()
	merged := s.w.merged()
	s.mu.Unlock()
	return sortedEntries(merged)
}

// Reset implements Counter.
func (s *Shared) Reset() {
	s.mu.Lock()
	s.w.Reset()
	s.mu.Unlock()
}
