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
	return frontierEntry{c: wire.Contact{ID: id.ID(node), Addr: "mem/x"}, dist: dist, depth: 1}
}

func rttTable(t map[id.ID]time.Duration) func(id.ID) (time.Duration, bool) {
	return func(x id.ID) (time.Duration, bool) {
		d, ok := t[x]
		return d, ok
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
