package node

// RTT-estimator conformance: EWMA convergence, shift tracking, decay on
// contact eviction, sample hygiene (self/zero/non-positive rejected),
// and the end-to-end path — two live nodes on a memnet link with a
// known base delay must converge their estimates onto the link's RTT.

import (
	"fmt"
	"math"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/wire"
)

func newRTTNode(t *testing.T) *Node {
	t.Helper()
	nw := memnet.New(1)
	t.Cleanup(nw.CloseAll)
	n, err := Start(Config{
		Space:            id.NewSpace(16),
		ID:               1,
		Addr:             "mem/1",
		Listen:           func(addr string) (PacketConn, error) { return nw.Listen(addr) },
		DisableHealProbe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestRTTEWMAConvergence(t *testing.T) {
	n := newRTTNode(t)
	peer := wire.Contact{ID: 7, Addr: "mem/7"}

	// First sample initializes the estimate directly.
	n.observeRTT(peer, 10*time.Millisecond, true)
	if got, ok := n.ContactRTT(7); !ok || got != 10*time.Millisecond {
		t.Fatalf("after first sample: %v, %t; want exactly 10ms", got, ok)
	}
	// A constant stream must hold it there.
	for i := 0; i < 100; i++ {
		n.observeRTT(peer, 10*time.Millisecond, true)
	}
	if got, _ := n.ContactRTT(7); got != 10*time.Millisecond {
		t.Fatalf("constant samples moved the estimate to %v", got)
	}
	// A level shift must be tracked: after k samples the residual decays
	// by (1−α)^k. 50 samples at α=1/8 leave < 0.1% of the 40ms step.
	for i := 0; i < 50; i++ {
		n.observeRTT(peer, 50*time.Millisecond, true)
	}
	got, _ := n.ContactRTT(7)
	if math.Abs(float64(got-50*time.Millisecond)) > float64(time.Millisecond) {
		t.Fatalf("after shift to 50ms: estimate %v, want within 1ms", got)
	}
	if m := n.Metrics(); m.RTTSamples != 151 || m.RTTContacts != 1 {
		t.Fatalf("metrics: samples=%d contacts=%d, want 151, 1", m.RTTSamples, m.RTTContacts)
	}
}

// The estimator is RFC 6298's, step for step: the first sample R sets
// srtt = R and rttvar = R/2; each later sample updates rttvar =
// 3/4·rttvar + 1/4·|srtt − R| against the old srtt, then srtt =
// 7/8·srtt + 1/8·R; the RTO is srtt + 4·rttvar, at least rtoMin. The
// expected values are worked by hand, in microseconds.
func TestRTTEstimatorFollowsRFC6298(t *testing.T) {
	n := newRTTNode(t)
	peer := wire.Contact{ID: 5, Addr: "mem/5"}
	us := func(f float64) time.Duration { return time.Duration(f * float64(time.Microsecond)) }
	steps := []struct {
		sample            time.Duration
		srtt, rttvar, rto float64 // µs
	}{
		{us(8000), 8000, 4000, 24000},
		{us(16000), 9000, 5000, 29000},             // |8000−16000| = 8000
		{us(9000), 9000, 3750, 24000},              // |9000−9000| = 0
		{us(1000), 8000, 4812.5, 27250},            // |9000−1000| = 8000
		{us(8000), 8000, 3609.375, 22437.5},        // |8000−8000| = 0
		{us(40000), 12000, 10707.03125, 54828.125}, // |8000−40000| = 32000
	}
	for i, st := range steps {
		n.observeRTT(peer, st.sample, true)
		e, ok := n.rttAt(peer.Addr)
		if !ok {
			t.Fatalf("step %d: no estimate at %s", i, peer.Addr)
		}
		for _, c := range []struct {
			name      string
			got, want time.Duration
		}{
			{"srtt", time.Duration(e.srtt), us(st.srtt)},
			{"rttvar", time.Duration(e.rttvar), us(st.rttvar)},
			{"rto", e.rto(), us(st.rto)},
		} {
			if d := c.got - c.want; d < -time.Nanosecond || d > time.Nanosecond {
				t.Fatalf("step %d (sample %v): %s %v, want %v", i, st.sample, c.name, c.got, c.want)
			}
		}
		if wait := n.lk.hedgeDelay(peer.Addr, time.Hour); wait != e.rto() {
			t.Fatalf("step %d: hedge delay %v, estimate's rto %v", i, wait, e.rto())
		}
	}
	info := n.ContactRTTs()
	if len(info) != 1 || info[0].RTTVar != time.Duration(n.peers[peer.Addr].rtt.rttvar) || info[0].Samples != uint64(len(steps)) {
		t.Fatalf("snapshot %+v does not carry the estimate", info)
	}
	// On a 50 µs link srtt + 4·rttvar is 150 µs, and rtoMin is what
	// keeps the hedge from racing the scheduler.
	fast := wire.Contact{ID: 6, Addr: "mem/6"}
	n.observeRTT(fast, 50*time.Microsecond, true)
	if e, _ := n.rttAt(fast.Addr); e.rto() != rtoMin {
		t.Fatalf("50µs link: rto %v, want rtoMin %v", e.rto(), rtoMin)
	}
}

// The estimate behind a position-aliased contact is found by address:
// the id the probe carries is a key position, but the address is the
// owner's, and the estimate is the address's.
func TestRTTResolvedByAddress(t *testing.T) {
	n := newRTTNode(t)
	n.observeRTT(wire.Contact{ID: 7, Addr: "mem/7"}, 3*time.Millisecond, true)
	if e, ok := n.rttAt("mem/7"); !ok || time.Duration(e.srtt) != 3*time.Millisecond {
		t.Fatalf("srtt at the owner's address: %v, %t; want 3ms", time.Duration(e.srtt), ok)
	}
	if _, ok := n.rttAt("mem/8"); ok {
		t.Fatal("an unknown address resolved to an estimate")
	}
	// A contact re-addressed by hearsay leaves the estimate with the
	// address that earned it: the old address still resolves, the new
	// one and the id do not.
	n.noteContact(wire.Contact{ID: 7, Addr: "mem/7b"})
	if e, ok := n.rttAt("mem/7"); !ok || time.Duration(e.srtt) != 3*time.Millisecond {
		t.Fatalf("srtt at the old address: %v, %t; want 3ms", time.Duration(e.srtt), ok)
	}
	if _, ok := n.rttAt("mem/7b"); ok {
		t.Fatal("the estimate followed the id to its new address")
	}
	if _, ok := n.ContactRTT(7); ok {
		t.Fatal("the re-addressed id kept an estimate")
	}
}

// A key position noted by hearsay at its owner's address, with no owner
// hint, costs what the owner's link does in QoS selection.
func TestQoSCostOfAliasedPositionIsOwners(t *testing.T) {
	n := newRTTNode(t)
	n.observeRTT(wire.Contact{ID: 7, Addr: "mem/7"}, 3*time.Millisecond, true)
	n.noteContact(wire.Contact{ID: 900, Addr: "mem/7"})
	if _, ok := n.ownerHints.Get(900, time.Now()); ok {
		t.Fatal("setup: the key position has an owner hint")
	}
	if cost, ok := n.qosCost(900); !ok || cost != 3 {
		t.Fatalf("QoS cost of the aliased position: %v (%t), want the owner's 3ms", cost, ok)
	}
}

// One outlier among steady samples must nudge, not replace, the
// estimate — the point of smoothing.
func TestRTTEWMASmoothsOutliers(t *testing.T) {
	n := newRTTNode(t)
	peer := wire.Contact{ID: 9, Addr: "mem/9"}
	for i := 0; i < 30; i++ {
		n.observeRTT(peer, 5*time.Millisecond, true)
	}
	n.observeRTT(peer, 500*time.Millisecond, true) // one GC-pause-shaped freak
	got, _ := n.ContactRTT(9)
	want := time.Duration(float64(5*time.Millisecond) + rttAlpha*float64(495*time.Millisecond))
	if math.Abs(float64(got-want)) > float64(100*time.Microsecond) {
		t.Fatalf("outlier moved estimate to %v, want ~%v (α-damped)", got, want)
	}
}

func TestRTTSampleHygiene(t *testing.T) {
	n := newRTTNode(t)
	n.observeRTT(wire.Contact{}, 5*time.Millisecond, true)    // zero contact
	n.observeRTT(n.self, 5*time.Millisecond, true)            // self
	n.observeRTT(wire.Contact{ID: 3, Addr: "mem/3"}, 0, true) // non-positive
	n.observeRTT(wire.Contact{ID: 3, Addr: "mem/3"}, -4*time.Millisecond, true)
	if got := n.ContactRTTs(); len(got) != 0 {
		t.Fatalf("bad samples were tracked: %+v", got)
	}
	if _, ok := n.ContactRTT(n.self.ID); ok {
		t.Fatal("self acquired an RTT estimate")
	}
}

// Evicting a contact must evict its estimate with it (no orphans), and
// only when the failing address is still current.
func TestRTTDecaysWithContactEviction(t *testing.T) {
	n := newRTTNode(t)
	peer := wire.Contact{ID: 11, Addr: "mem/11"}
	n.observeRTT(peer, 8*time.Millisecond, true)
	if _, ok := n.ContactRTT(11); !ok {
		t.Fatal("estimate missing before eviction")
	}

	// A stale failure (address already replaced) drops the failed
	// address's record but keeps the id's fresher address.
	n.noteContact(wire.Contact{ID: 11, Addr: "mem/11-new"})
	n.forgetAddr(11, "mem/11")
	if _, ok := n.rttAt("mem/11"); ok {
		t.Fatal("the failed address kept its estimate")
	}
	if addr, ok := n.resolve(11); !ok || addr != "mem/11-new" {
		t.Fatalf("stale-address failure moved the id to %q (%t), want mem/11-new", addr, ok)
	}

	// A current failure must evict estimate (srtt and rttvar alike),
	// address and record together.
	n.observeRTT(wire.Contact{ID: 11, Addr: "mem/11-new"}, 8*time.Millisecond, true)
	n.forgetAddr(11, "mem/11-new")
	if _, ok := n.ContactRTT(11); ok {
		t.Fatal("estimate survived contact eviction")
	}
	if _, ok := n.rttAt("mem/11-new"); ok {
		t.Fatal("the evicted contact's RTO still resolves by address")
	}
	if _, ok := n.resolve(11); ok {
		t.Fatal("address survived forgetAddr")
	}
	n.addrMu.RLock()
	_, cached := n.addrs[11]
	_, recorded := n.peers["mem/11-new"]
	n.addrMu.RUnlock()
	if cached || recorded {
		t.Fatalf("forgetAddr left the address (%t) or the record (%t) behind", cached, recorded)
	}
	if m := n.Metrics(); m.RTTContacts != 0 {
		t.Fatalf("RTTContacts = %d after eviction, want 0", m.RTTContacts)
	}
}

// ContactRTTs must come out sorted and carry the backing address.
func TestContactRTTsSnapshot(t *testing.T) {
	n := newRTTNode(t)
	for _, x := range []id.ID{40, 10, 30} {
		n.observeRTT(wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", x)}, time.Duration(x)*time.Millisecond, true)
	}
	got := n.ContactRTTs()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []id.ID{10, 30, 40} {
		if got[i].ID != want {
			t.Fatalf("snapshot order %v, want ids ascending", got)
		}
		if got[i].Addr != fmt.Sprintf("mem/%d", want) {
			t.Fatalf("entry %d lost its address: %+v", i, got[i])
		}
		if got[i].Samples != 1 || got[i].SRTT != time.Duration(want)*time.Millisecond {
			t.Fatalf("entry %d corrupted: %+v", i, got[i])
		}
	}
}

// End to end: two live nodes on a memnet link with a 2ms one-way base
// delay. Every correlated RPC (join, stabilization, explicit lookups)
// is a sample, and both sides' estimates must land at or above the
// link's 4ms RTT floor — and within a sane multiple of it.
func TestRTTMeasuredOnLiveLink(t *testing.T) {
	nw := memnet.New(3)
	defer nw.CloseAll()
	const oneWay = 2 * time.Millisecond
	nw.SetTopology(memnet.DelayFunc(func(from, to string) time.Duration { return oneWay }))

	space := id.NewSpace(16)
	mk := func(x uint64, bootstrap string) *Node {
		n, err := Start(Config{
			Space:            space,
			ID:               id.ID(x),
			Addr:             fmt.Sprintf("mem/%d", x),
			StabilizeEvery:   20 * time.Millisecond,
			FixFingersEvery:  10 * time.Millisecond,
			RPCTimeout:       200 * time.Millisecond,
			RPCRetries:       1,
			Listen:           func(addr string) (PacketConn, error) { return nw.Listen(addr) },
			DisableHealProbe: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		if bootstrap != "" {
			if err := n.Join(bootstrap); err != nil {
				t.Fatal(err)
			}
		}
		return n
	}
	a := mk(100, "")
	b := mk(200, "mem/100")

	deadline := time.Now().Add(5 * time.Second)
	for {
		ra, oka := a.ContactRTT(200)
		rb, okb := b.ContactRTT(100)
		if oka && okb {
			for _, r := range []time.Duration{ra, rb} {
				if r < 2*oneWay {
					t.Fatalf("estimate %v below the link RTT floor %v", r, 2*oneWay)
				}
				if r > 20*oneWay {
					t.Fatalf("estimate %v absurdly above the link RTT %v", r, 2*oneWay)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimates never appeared: a→b %v %t, b→a %v %t", ra, oka, rb, okb)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
