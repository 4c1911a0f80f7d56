package node

// The per-endpoint record: what the node knows of one address — its
// smoothed RTT and heard time — lives in one entry of one map, keyed
// by the address every probe, ping and reply travels to and from. An
// owner-aliased aux pointer ({key position, owner's address}) shares
// its owner's record by construction, and a note about an id, which
// moves only the id's address, cannot move a record.
//
// Every correlated RPC that completes is a free latency measurement:
// the transport knows when an attempt's datagram went out and when its
// paired response arrived, and the response's From identifies the peer.
// The node folds those samples into TCP's estimator (RFC 6298: smoothed
// RTT and RTT variation) per endpoint: the cost model of the paper's
// QoS selection (recomputeAux's AuxQoS mode) and of the lookup race's
// proximity routing and hedge delay (the probed address's RTO),
// surfaced in the p2pnode metrics JSON. The heard time is the liveness
// half (liveness.go).

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

// peer is one address's record. rtt changes under addrMu's write
// lock; heard is atomic, so the request path stamps it under the read
// lock. heard is the stampNow of the last request or non-pong reply
// from the address; 0 is never, or suspected since.
type peer struct {
	rtt   rttEstimate
	heard atomic.Int64
}

// rttEstimate is one endpoint's smoothed RTT state.
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

// observeRTT folds one measured sample into the estimate of c's
// address and, when heard, stamps it heard now. A peer that answered
// an RPC is by definition a live, routable contact, so the address
// cache learns it in the same critical section. Non-positive samples,
// self, and addressless contacts are ignored.
func (n *Node) observeRTT(c wire.Contact, sample time.Duration, heard bool) {
	if sample <= 0 || c.Addr == "" || c.ID == n.self.ID || len(c.Addr) > wire.MaxAddrLen {
		return
	}
	r := float64(sample)
	n.addrMu.Lock()
	n.addrs[c.ID] = c.Addr
	p := n.peerLocked(c.Addr)
	e := &p.rtt
	if e.samples == 0 {
		e.srtt, e.rttvar = r, r/2
	} else {
		// RFC 6298 §2.3: the variation is updated against the old srtt.
		e.rttvar += rttBeta * (math.Abs(e.srtt-r) - e.rttvar)
		e.srtt += rttAlpha * (r - e.srtt)
	}
	e.samples++
	if heard {
		p.heard.Store(stampNow())
	}
	n.addrMu.Unlock()
	n.rttSamples.Add(1)
}

// rttAt returns the estimate of the endpoint at addr: the lookup
// race's proximity and hedge hook, and the QoS cost's source.
func (n *Node) rttAt(addr string) (rttEstimate, bool) {
	n.addrMu.RLock()
	var e rttEstimate
	if p := n.peers[addr]; p != nil {
		e = p.rtt
	}
	n.addrMu.RUnlock()
	return e, e.samples > 0
}

// ContactRTT returns the smoothed RTT to x's cached address, if any
// sample has ever been folded in there (and neither has been evicted
// since).
func (n *Node) ContactRTT(x id.ID) (time.Duration, bool) {
	n.addrMu.RLock()
	var e rttEstimate
	if p := n.peers[n.addrs[x]]; p != nil {
		e = p.rtt
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

// ContactRTTs snapshots every cached id whose address has an
// estimate, sorted by id for deterministic output. Ids aliased to one
// address all show its estimate.
func (n *Node) ContactRTTs() []ContactRTTInfo {
	now := stampNow()
	n.addrMu.RLock()
	out := make([]ContactRTTInfo, 0, len(n.addrs))
	for x, addr := range n.addrs {
		p := n.peers[addr]
		if p == nil || p.rtt.samples == 0 {
			continue
		}
		heard := time.Duration(-1)
		if h := p.heard.Load(); h > 0 {
			heard = time.Duration(now - h)
		}
		out = append(out, ContactRTTInfo{
			ID:      x,
			Addr:    addr,
			SRTT:    time.Duration(p.rtt.srtt),
			RTTVar:  time.Duration(p.rtt.rttvar),
			Samples: p.rtt.samples,
			Heard:   heard,
		})
	}
	n.addrMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// rttContacts counts the rows ContactRTTs would return.
func (n *Node) rttContacts() int {
	n.addrMu.RLock()
	defer n.addrMu.RUnlock()
	count := 0
	for _, addr := range n.addrs {
		if p := n.peers[addr]; p != nil && p.rtt.samples > 0 {
			count++
		}
	}
	return count
}
