package node

// Conformance tests for the lookup-side half of QoS routing:
// qosProbeIndex's proximity route selection. The selection half
// (selectAux through the geometry's SelectAux) is covered in qos_test.go;
// this file pins the probe-scheduling rules the race loop relies on:
//
//   - within the eligible window (short prefix, distance within ~2× of
//     the frontier head) the cheapest *measured* link wins;
//   - unmeasured candidates never displace the geometry's pick — with
//     no RTT data the mode must degrade to plain greedy;
//   - a candidate outside the 2× distance band is never chosen no
//     matter how cheap its link, so the walk keeps halving the gap.

import (
	"fmt"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// probeFrontier builds a distance-sorted frontier from (id, dist)
// pairs, the invariant race() maintains via sorted insertion.
func probeFrontier(entries ...frontierEntry) []frontierEntry {
	for i := 1; i < len(entries); i++ {
		if entries[i].dist < entries[i-1].dist {
			panic("test frontier not distance-sorted")
		}
	}
	return entries
}

func fe(node uint64, dist uint64) frontierEntry {
	return frontierEntry{c: wire.Contact{ID: id.ID(node), Addr: memAddr(id.ID(node))}, dist: dist, depth: 1}
}

// aliasFE is an aux candidate aliased to a key position: its id is the
// key's ring position, its address the owner's.
func aliasFE(keyPos, owner uint64, dist uint64) frontierEntry {
	return frontierEntry{c: wire.Contact{ID: id.ID(keyPos), Addr: memAddr(id.ID(owner))}, dist: dist, depth: 1}
}

func memAddr(x id.ID) string { return fmt.Sprintf("mem/%d", x) }

// rttTable serves per-node RTTs the way the node's hook does: by the
// address a probe goes to.
func rttTable(t map[id.ID]time.Duration) func(string) (rttEstimate, bool) {
	byAddr := make(map[string]rttEstimate, len(t))
	for x, d := range t {
		byAddr[memAddr(x)] = rttEstimate{srtt: float64(d), samples: 1}
	}
	return func(addr string) (rttEstimate, bool) {
		e, ok := byAddr[addr]
		return e, ok
	}
}

func TestQoSProbeOrdering(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	cases := []struct {
		name     string
		frontier []frontierEntry
		rtt      map[id.ID]time.Duration
		want     int
	}{
		{
			name:     "no measurements degrades to geometry pick",
			frontier: probeFrontier(fe(1, 100), fe(2, 150), fe(3, 180)),
			rtt:      nil,
			want:     0,
		},
		{
			name:     "cheapest measured link within band wins",
			frontier: probeFrontier(fe(1, 100), fe(2, 150), fe(3, 180)),
			rtt:      map[id.ID]time.Duration{1: ms(40), 2: ms(35), 3: ms(5)},
			want:     2,
		},
		{
			name:     "unmeasured head loses only to a measured rival",
			frontier: probeFrontier(fe(1, 100), fe(2, 150)),
			rtt:      map[id.ID]time.Duration{2: ms(30)},
			want:     1,
		},
		{
			name: "cheap link outside the 2x distance band is ignored",
			// 300>>1 = 150 > 100: entry 2 is past the band even though
			// its link is nearly free.
			frontier: probeFrontier(fe(1, 100), fe(2, 300)),
			rtt:      map[id.ID]time.Duration{1: ms(40), 2: ms(1)},
			want:     0,
		},
		{
			name: "band cut stops the scan, not just the candidate",
			// Entry 2 breaks the band; entry 3 is sorted after it so it
			// must not be reached even though its dist field would pass.
			frontier: probeFrontier(fe(1, 100), fe(2, 300), fe(3, 300)),
			rtt:      map[id.ID]time.Duration{3: ms(1)},
			want:     0,
		},
		{
			name: "window caps the scan at qosProbeWindow entries",
			frontier: probeFrontier(
				fe(1, 100), fe(2, 100), fe(3, 100), fe(4, 100), fe(5, 100)),
			rtt:  map[id.ID]time.Duration{5: ms(1)},
			want: 0,
		},
		{
			name: "full-width distances do not overflow the band test",
			// dist near 2^64: 2*dist would wrap; the shift form must
			// still accept the head's equal-distance rival.
			frontier: probeFrontier(fe(1, ^uint64(0)-1), fe(2, ^uint64(0))),
			rtt:      map[id.ID]time.Duration{2: ms(3)},
			want:     1,
		},
		{
			name: "aliased aux candidate is measured as its owner",
			// Entry 2 is {key position 900, owner 7's address}: only
			// the owner has an estimate, and its link is the cheapest.
			frontier: probeFrontier(fe(1, 100), aliasFE(900, 7, 120)),
			rtt:      map[id.ID]time.Duration{1: ms(40), 7: ms(2)},
			want:     1,
		},
		{
			name:     "tie on RTT keeps the earlier (nearer) candidate",
			frontier: probeFrontier(fe(1, 100), fe(2, 120)),
			rtt:      map[id.ID]time.Duration{1: ms(10), 2: ms(10)},
			want:     0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := qosProbeIndex(tc.frontier, rttTable(tc.rtt))
			if got != tc.want {
				t.Fatalf("qosProbeIndex = %d, want %d", got, tc.want)
			}
		})
	}
}

// End to end through the node's own hook: an aux candidate aliased to a
// key position ({keyPos, ownerAddr}) has no estimate under its id, but
// the probe goes to the owner's address, and the owner's cheap link
// promotes it over the geometry's pick.
func TestQoSProbePromotesAliasedAux(t *testing.T) {
	n := newRTTNode(t)
	n.observeRTT(wire.Contact{ID: 1, Addr: memAddr(1)}, 40*time.Millisecond, true)
	n.observeRTT(wire.Contact{ID: 7, Addr: memAddr(7)}, 2*time.Millisecond, true)
	frontier := probeFrontier(fe(1, 100), aliasFE(900, 7, 120))
	if _, ok := n.ContactRTT(900); ok {
		t.Fatal("the key position acquired an estimate of its own")
	}
	if got := qosProbeIndex(frontier, n.rttAt); got != 1 {
		t.Fatalf("qosProbeIndex = %d, want 1: the aliased candidate rides its owner's 2ms link", got)
	}
}
