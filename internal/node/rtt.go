package node

// The per-contact record: a peer's address, smoothed RTT and heard
// time live in one entry of one map under one lock, so evicting an
// address evicts the rest with it (the soak suite's latency-sane
// invariant).
//
// Every correlated RPC that completes is a free latency measurement:
// the transport knows when an attempt's datagram went out and when its
// paired response arrived, and the response's From identifies the peer.
// The node folds those samples into TCP's estimator (RFC 6298: smoothed
// RTT and RTT variation) per contact: the cost model of the paper's QoS
// selection (recomputeAux's AuxQoS mode) and of the lookup race's hedge
// delay (the probed contact's RTO), surfaced in the p2pnode metrics
// JSON. The heard time is the liveness half (liveness.go).

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// rttAlpha and rttBeta are RFC 6298's gains: each new sample moves the
// smoothed RTT 1/8 and the RTT variation 1/4 of the way to itself,
// heavy enough to converge in a dozen samples, light enough to ride out
// one freak scheduling stall.
const (
	rttAlpha = 0.125
	rttBeta  = 0.25
)

// contact is one peer's record. addr and rtt change under addrMu's
// write lock; heard is atomic, so the request path stamps it under the
// read lock. heard is the stampNow of the last request or non-pong
// reply from the peer; 0 is never, or suspected since.
type contact struct {
	addr  string
	rtt   rttEstimate
	heard atomic.Int64
}

// rttEstimate is one contact's smoothed RTT state.
type rttEstimate struct {
	srtt    float64 // smoothed RTT, nanoseconds
	rttvar  float64 // RTT variation, nanoseconds
	samples uint64
}

// rtoMin is the RTO's lower bound, as RFC 6298's one second is TCP's.
// On an in-process or LAN link srtt + 4·rttvar is tens of microseconds,
// while a probe's answer can wait milliseconds on a loaded box for its
// goroutines to be scheduled or a 4 KiB value to be encoded; a hedge
// that fires then races the scheduler, not loss. On the benchmark's
// lossless kad_stream workload (2-core box) hedges fired on 1.1 % of
// walks with srtt + max(1 ms, 4·rttvar), on 0.07 % with a 3 ms minimum
// and on 0.006 % with 5 ms (docs/BENCHMARKS.md).
const rtoMin = 5 * time.Millisecond

// rto is RFC 6298's retransmission timeout, srtt + 4·rttvar, bounded
// below by rtoMin: the wait past which a probe's silence is more likely
// loss than a slow answer. Callers cap it.
func (e rttEstimate) rto() time.Duration {
	return max(rtoMin, time.Duration(e.srtt+4*e.rttvar))
}

// observeRTT folds one measured sample into the peer's estimate and,
// when heard, stamps the peer heard now. A peer that answered an RPC
// is by definition a live, routable contact, so the address cache
// learns it in the same critical section. Non-positive samples, self,
// and zero contacts are ignored.
func (n *Node) observeRTT(c wire.Contact, sample time.Duration, heard bool) {
	if sample <= 0 || c.IsZero() || c.ID == n.self.ID || len(c.Addr) > wire.MaxAddrLen {
		return
	}
	r := float64(sample)
	n.addrMu.Lock()
	rec := n.setAddrLocked(c.ID, c.Addr, true)
	e := &rec.rtt
	if e.samples == 0 {
		e.srtt, e.rttvar = r, r/2
	} else {
		// RFC 6298 §2.3: the variation is updated against the old srtt.
		e.rttvar += rttBeta * (math.Abs(e.srtt-r) - e.rttvar)
		e.srtt += rttAlpha * (r - e.srtt)
	}
	e.samples++
	if heard {
		rec.heard.Store(stampNow())
	}
	n.addrMu.Unlock()
	n.rttSamples.Add(1)
}

// rttAt returns the estimate of the contact at addr, resolved through
// the address index: a probe goes to an address, and a position-aliased
// aux contact ({key position, owner's address}) carries an id the
// estimator has never seen, so the address is the only key that finds
// the owner's measurements.
func (n *Node) rttAt(addr string) (rttEstimate, bool) {
	n.addrMu.RLock()
	rec := n.contactAtLocked(addr)
	var e rttEstimate
	if rec != nil {
		e = rec.rtt
	}
	n.addrMu.RUnlock()
	return e, e.samples > 0
}

// srttAt is the lookup race's proximity hook: the smoothed RTT of the
// contact at addr.
func (n *Node) srttAt(addr string) (time.Duration, bool) {
	e, ok := n.rttAt(addr)
	return time.Duration(e.srtt), ok
}

// rtoAt is the lookup race's hedge hook: the RTO of the contact at
// addr.
func (n *Node) rtoAt(addr string) (time.Duration, bool) {
	e, ok := n.rttAt(addr)
	return e.rto(), ok
}

// ContactRTT returns the smoothed RTT to x, if any sample has ever been
// folded in (and the contact has not been evicted since).
func (n *Node) ContactRTT(x id.ID) (time.Duration, bool) {
	n.addrMu.RLock()
	var e rttEstimate
	if rec := n.contacts[x]; rec != nil {
		e = rec.rtt
	}
	n.addrMu.RUnlock()
	return time.Duration(e.srtt), e.samples > 0
}

// ContactRTTInfo is one contact's latency snapshot, as surfaced in the
// p2pnode metrics JSON. Heard is how long ago the contact was last
// heard from, negative when it never was (or is suspected since).
type ContactRTTInfo struct {
	ID      id.ID
	Addr    string
	SRTT    time.Duration
	RTTVar  time.Duration
	Samples uint64
	Heard   time.Duration
}

// ContactRTTs snapshots every contact with an estimate, sorted by id
// for deterministic output.
func (n *Node) ContactRTTs() []ContactRTTInfo {
	now := stampNow()
	n.addrMu.RLock()
	out := make([]ContactRTTInfo, 0, len(n.contacts))
	for x, rec := range n.contacts {
		if rec.rtt.samples == 0 {
			continue
		}
		heard := time.Duration(-1)
		if h := rec.heard.Load(); h > 0 {
			heard = time.Duration(now - h)
		}
		out = append(out, ContactRTTInfo{
			ID:      x,
			Addr:    rec.addr,
			SRTT:    time.Duration(rec.rtt.srtt),
			RTTVar:  time.Duration(rec.rtt.rttvar),
			Samples: rec.rtt.samples,
			Heard:   heard,
		})
	}
	n.addrMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
