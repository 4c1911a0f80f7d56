package kadring

import (
	"testing"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// challenged builds node 0x0000 with bucket size 4 and, for each of the
// given buckets i, five members sharing exactly i leading bits with it:
// four fill bucket i and the fifth waits in its replacement cache, so
// the next Stabilize round checks bucket i's least-recently-seen entry.
func challenged(tb testing.TB, buckets ...uint) (*Ring, *fakeHost, []*Ring) {
	tb.Helper()
	space := id.NewSpace(16)
	net := make(map[string]*Ring)
	a := newTestRing(tb, space, net, 0x0000)
	var members []*Ring
	for _, i := range buckets {
		for j := 0; j < 5; j++ {
			x := space.SetBit(0, i, 1) + id.ID(j)
			members = append(members, newTestRing(tb, space, net, x))
		}
	}
	for _, m := range members {
		a.learn(m.self)
	}
	return a, a.h.(*fakeHost), members
}

func totalPings(h *fakeHost) int {
	n := 0
	for _, k := range h.pings {
		n += k
	}
	return n
}

// TestStabilizeChecksChallengedLRUThroughAlive: the least-recently-seen
// entry of a full bucket with a queued challenger is checked through
// Host.Alive. When the runtime heard from it, the round pings nobody;
// when it did not, the entry is pinged exactly once. Either way the
// live entry stays, moves to most-recently-seen, and the challenger is
// discarded.
func TestStabilizeChecksChallengedLRUThroughAlive(t *testing.T) {
	for _, heard := range []bool{true, false} {
		a, h, members := challenged(t, 0)
		lru := members[0].self
		if got := a.Buckets()[0]; len(got) != 4 || got[0].ID != lru.ID || len(a.repl[0]) != 1 {
			t.Fatalf("setup: bucket 0 %v, %d candidates; want 4 entries led by %d and 1 candidate", got, len(a.repl[0]), lru.ID)
		}
		if heard {
			h.heard[lru.Addr] = true
		}
		a.Stabilize()
		want := 1
		if heard {
			want = 0
		}
		if got := totalPings(h); got != want || h.pings[lru.Addr] != want {
			t.Fatalf("heard=%t: round pinged %v, want %d ping of the LRU entry", heard, h.pings, want)
		}
		got := a.Buckets()[0]
		if len(got) != 4 || got[3].ID != lru.ID {
			t.Fatalf("heard=%t: bucket 0 after the check %v, want %d kept as most recent", heard, got, lru.ID)
		}
		if len(a.repl[0]) != 0 {
			t.Fatalf("heard=%t: challenger %v survived a live LRU entry", heard, a.repl[0])
		}
	}
}

// TestRepairTableChecksLRUThroughAlive: RepairTable's turn at a
// populated bucket checks its least-recently-seen entry through
// Host.Alive — no ping when heard, one when not, and a dead entry
// makes way for the queued candidate.
func TestRepairTableChecksLRUThroughAlive(t *testing.T) {
	a, h, members := challenged(t, 0)
	lru := members[0].self
	h.heard[lru.Addr] = true
	a.nextBucket = 0
	a.RepairTable()
	if got := totalPings(h); got != 0 {
		t.Fatalf("repair of a heard LRU entry pinged %v", h.pings)
	}
	// The check moved it to most recent; the next LRU entry crashes.
	lru = a.Buckets()[0][0]
	delete(h.net, lru.Addr)
	a.nextBucket = 0
	a.RepairTable()
	if got := h.pings[lru.Addr]; got != 1 || totalPings(h) != 1 {
		t.Fatalf("repair of an unheard LRU entry pinged %v, want %d once", h.pings, lru.ID)
	}
	got := a.Buckets()[0]
	if len(got) != 4 || listsID(got, lru.ID) || !listsID(got, members[4].self.ID) {
		t.Fatalf("bucket 0 after a dead LRU entry %v, want %d replaced by candidate %d", got, lru.ID, members[4].self.ID)
	}
}

func listsID(list []wire.Contact, x id.ID) bool {
	for _, c := range list {
		if c.ID == x {
			return true
		}
	}
	return false
}

// BenchmarkStabilizeKademlia prices one maintenance round — a Stabilize
// and a RepairTable call — on a node whose buckets 0–2 are full with a
// challenger queued each (re-queued before every round): RPCs issued
// (rpcs/round) and liveness pings among them (pings/round). In the
// heard case the runtime has heard from every contact within the
// period, and the round must ping nobody.
func BenchmarkStabilizeKademlia(b *testing.B) {
	for _, heard := range []bool{false, true} {
		name := "unheard"
		if heard {
			name = "heard"
		}
		b.Run(name, func(b *testing.B) {
			a, h, members := challenged(b, 0, 1, 2)
			if heard {
				for _, m := range members {
					h.heard[m.self.Addr] = true
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, m := range members {
					a.learn(m.self)
				}
				b.StartTimer()
				a.Stabilize()
				a.RepairTable()
			}
			b.StopTimer()
			b.ReportMetric(float64(h.calls)/float64(b.N), "rpcs/round")
			b.ReportMetric(float64(totalPings(h))/float64(b.N), "pings/round")
			if heard && totalPings(h) != 0 {
				b.Fatalf("all contacts heard, yet %d liveness pings", totalPings(h))
			}
		})
	}
}
