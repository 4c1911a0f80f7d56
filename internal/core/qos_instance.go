package core

// Instance builder for the live runtime's QoS-aware aux selection: the
// node turns a frequency-window snapshot plus its latency model into
// the (peers, bounds) arguments the QoS selectors take, for whichever
// geometry it runs — so the logic lives here once, next to the
// selectors it feeds.

import (
	"sort"

	"peercache/internal/freq"
	"peercache/internal/id"
)

// qosInstanceCap bounds the peer count of a live QoS instance. The
// selectors are superlinear in the instance size (the Chord V-C DP is
// O(n²k)) and the live runtime re-runs them on every aux tick with no
// drift cache (costs move with every RTT sample), so an unbounded busy
// window — an intermediate node forwards traffic for thousands of keys
// — would turn the maintenance tick into a CPU hog that distorts the
// very latencies QoS selection is trying to improve. With an aux
// budget of k ≪ 64, peers outside the top 64 weighted frequencies
// essentially never reach the optimum; their bounds are dropped with
// them (a peer too cold to rank cannot justify a reserved direct
// pointer). Instances at or under the cap are passed through exactly,
// which keeps the degenerate no-cost/no-bound case objective-equal to
// the unconstrained selection (the property the live conformance test
// pins).
const qosInstanceCap = 64

// QoSInstance builds a cost-weighted selection instance from a
// frequency snapshot: observed peers minus self and the core set, each
// peer's frequency multiplied by cost(peer) (weight 1 when cost returns
// false or a non-positive value — no estimate means no opinion), and a
// bound map holding bound(peer) for exactly the peers that made it into
// the instance (the QoS selectors reject bounds on unknown ids). The
// weighted objective Σ f(v)·c(v)·d(v, N∪A) is expected latency when
// c(v) is the measured RTT to v. Instances larger than qosInstanceCap
// are truncated to the top weighted frequencies. A nil bound callback
// means no peer is bounded — the cost-weighted unconstrained instance.
func QoSInstance(snapshot []freq.Entry, self id.ID, coreIDs []id.ID, cost func(id.ID) (float64, bool), bound func(id.ID) (uint, bool)) ([]Peer, map[id.ID]uint) {
	coreSet := make(map[id.ID]bool, len(coreIDs))
	for _, c := range coreIDs {
		coreSet[c] = true
	}
	var peers []Peer
	var bounds map[id.ID]uint
	for _, e := range snapshot {
		if e.Count == 0 || e.Peer == self || coreSet[e.Peer] {
			continue
		}
		w := 1.0
		if c, ok := cost(e.Peer); ok && c > 0 {
			w = c
		}
		peers = append(peers, Peer{ID: e.Peer, Freq: float64(e.Count) * w})
	}
	if len(peers) > qosInstanceCap {
		sort.Slice(peers, func(i, j int) bool {
			if peers[i].Freq != peers[j].Freq {
				return peers[i].Freq > peers[j].Freq
			}
			return peers[i].ID < peers[j].ID
		})
		peers = peers[:qosInstanceCap]
	}
	for i := range peers {
		if bound == nil {
			break
		}
		if b, ok := bound(peers[i].ID); ok {
			if bounds == nil {
				bounds = make(map[id.ID]uint)
			}
			bounds[peers[i].ID] = b
		}
	}
	return peers, bounds
}
