package node

// Per-contact smoothed RTT. Every correlated RPC that completes is a
// free latency measurement: the transport knows exactly when an
// attempt's datagram went out and when its paired response arrived, and
// the response's From identifies the peer. The node folds those samples
// into TCP's estimator (RFC 6298: smoothed RTT and RTT variation) per
// contact, stored alongside the address cache under the same lock so
// eviction stays atomic: forgetAddr drops a peer's estimate with its
// address, never leaving an orphaned estimate (the soak suite's
// latency-sane invariant).
//
// The estimates are the live runtime's cost model for the paper's QoS
// selection (recomputeAux's AuxQoS mode weights observed lookup
// frequencies by measured RTT and bounds far peers) and for the lookup
// race's hedge delay (the probed contact's RTO), and are surfaced
// through ring.Host.RTTOf and the p2pnode metrics JSON.

import (
	"math"
	"sort"
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

// observeRTT folds one measured sample into the peer's estimate. A peer
// that answered an RPC is by definition a live, routable contact, so
// the address cache learns it in the same critical section — keeping
// the invariant that every RTT estimate has a backing address entry.
// Non-positive samples, self, and zero contacts are ignored.
func (n *Node) observeRTT(c wire.Contact, sample time.Duration) {
	if sample <= 0 || c.IsZero() || c.ID == n.self.ID || len(c.Addr) > wire.MaxAddrLen {
		return
	}
	r := float64(sample)
	n.addrMu.Lock()
	n.setAddrLocked(c.ID, c.Addr)
	e := n.rtt[c.ID]
	if e.samples == 0 {
		e.srtt, e.rttvar = r, r/2
	} else {
		// RFC 6298 §2.3: the variation is updated against the old srtt.
		e.rttvar += rttBeta * (math.Abs(e.srtt-r) - e.rttvar)
		e.srtt += rttAlpha * (r - e.srtt)
	}
	e.samples++
	n.rtt[c.ID] = e
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
	x, ok := n.byAddr[addr]
	e := n.rtt[x]
	n.addrMu.RUnlock()
	return e, ok && e.samples > 0
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
	e, ok := n.rtt[x]
	n.addrMu.RUnlock()
	if !ok || e.samples == 0 {
		return 0, false
	}
	return time.Duration(e.srtt), true
}

// ContactRTTInfo is one contact's latency snapshot, as surfaced in the
// p2pnode metrics JSON.
type ContactRTTInfo struct {
	ID      id.ID
	Addr    string
	SRTT    time.Duration
	RTTVar  time.Duration
	Samples uint64
}

// ContactRTTs snapshots every tracked estimate, sorted by id for
// deterministic output.
func (n *Node) ContactRTTs() []ContactRTTInfo {
	n.addrMu.RLock()
	out := make([]ContactRTTInfo, 0, len(n.rtt))
	for x, e := range n.rtt {
		out = append(out, ContactRTTInfo{
			ID:      x,
			Addr:    n.addrs[x],
			SRTT:    time.Duration(e.srtt),
			RTTVar:  time.Duration(e.rttvar),
			Samples: e.samples,
		})
	}
	n.addrMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
