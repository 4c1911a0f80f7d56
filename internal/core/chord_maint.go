package core

import (
	"fmt"
	"math"

	"peercache/internal/freq"
	"peercache/internal/id"
)

// ChordMaintainer packages the maintenance policy Section III describes
// for Chord: observations accumulate in a frequency counter and the
// (non-incremental) optimal selection is recomputed "either periodically
// or based on some criteria that determines that the system has
// undergone a significant change". The criterion here is drift: the
// total variation distance between the frequency distribution at the
// last recomputation and the current one, recomputed lazily on Select.
//
// Unlike PastryMaintainer — whose trie structure supports true O(bk)
// incremental updates (Section IV-C) — Chord's DP has no incremental
// form in the paper, so the maintainer's job is to avoid *unnecessary*
// recomputations while bounding staleness.
type ChordMaintainer struct {
	space id.Space
	self  id.ID
	k     int
	// drift in [0, 1]: recompute when total variation since the last
	// selection reaches this threshold.
	drift float64

	counter *freq.Exact
	core    map[id.ID]bool

	// snapshot of the distribution the cached selection was computed
	// from (normalized), plus the cached result.
	lastDist map[id.ID]float64
	cached   Result
	valid    bool
	// Recomputes counts how many times the selection actually ran.
	Recomputes int
}

// NewChordMaintainer returns a maintainer for node self with the given
// core set and auxiliary budget. driftThreshold in (0, 1] sets how much
// the observed distribution must move (total variation) before Select
// recomputes; 0.1 is a reasonable default.
func NewChordMaintainer(space id.Space, self id.ID, core []id.ID, k int, driftThreshold float64) (*ChordMaintainer, error) {
	if k < 0 {
		return nil, fmt.Errorf("core: negative k = %d", k)
	}
	if driftThreshold <= 0 || driftThreshold > 1 {
		return nil, fmt.Errorf("core: drift threshold %g outside (0, 1]", driftThreshold)
	}
	if uint64(self) >= space.Size() {
		return nil, fmt.Errorf("core: self %d outside %d-bit space", self, space.Bits())
	}
	m := &ChordMaintainer{
		space:   space,
		self:    self,
		k:       k,
		drift:   driftThreshold,
		counter: freq.NewExact(),
		core:    make(map[id.ID]bool, len(core)),
	}
	for _, c := range core {
		if c == self {
			return nil, fmt.Errorf("core: self %d appears among core neighbors", self)
		}
		m.core[c] = true
	}
	return m, nil
}

// Observe records one lookup destined for peer p (self is ignored).
func (m *ChordMaintainer) Observe(p id.ID) {
	if p == m.self {
		return
	}
	m.counter.Observe(p)
}

// SetCore replaces the core neighbor set (e.g. after a finger-table
// refresh) and invalidates the cached selection.
func (m *ChordMaintainer) SetCore(core []id.ID) error {
	next := make(map[id.ID]bool, len(core))
	for _, c := range core {
		if c == m.self {
			return fmt.Errorf("core: self %d appears among core neighbors", m.self)
		}
		next[c] = true
	}
	m.core = next
	m.valid = false
	return nil
}

// distribution returns the normalized observed frequencies.
func (m *ChordMaintainer) distribution() map[id.ID]float64 {
	total := float64(m.counter.Total())
	dist := make(map[id.ID]float64)
	if total == 0 {
		return dist
	}
	for _, e := range m.counter.Snapshot() {
		dist[e.Peer] = float64(e.Count) / total
	}
	return dist
}

// totalVariation is ½ Σ |p − q| over the union support.
func totalVariation(p, q map[id.ID]float64) float64 {
	tv := 0.0
	for k, pv := range p {
		tv += math.Abs(pv - q[k])
	}
	for k, qv := range q {
		if _, ok := p[k]; !ok {
			tv += qv
		}
	}
	return tv / 2
}

// Select returns the current auxiliary set, recomputing only when no
// valid cached selection exists or the observed distribution has drifted
// past the threshold since the last recomputation (Section III's
// "significant change" criterion).
func (m *ChordMaintainer) Select() (Result, error) {
	dist := m.distribution()
	if m.valid && totalVariation(m.lastDist, dist) < m.drift {
		return m.cached, nil
	}
	coreIDs := make([]id.ID, 0, len(m.core))
	for c := range m.core {
		coreIDs = append(coreIDs, c)
	}
	peers := make([]Peer, 0, len(dist))
	for p, f := range dist {
		peers = append(peers, Peer{ID: p, Freq: f})
	}
	if len(peers) == 0 && len(coreIDs) == 0 {
		return Result{}, ErrNoNeighbors
	}
	res, err := SelectChordFast(m.space, m.self, coreIDs, peers, m.k)
	if err != nil {
		return Result{}, err
	}
	m.cached = res
	m.lastDist = dist
	m.valid = true
	m.Recomputes++
	return res, nil
}
