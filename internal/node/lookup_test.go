package node

// White-box tests of the lookup driver against a fake router and
// scripted peers, for what no real ring produces on demand: the order
// in which a drained walk reports its failure, and the hop budget's
// stop. The cancel drain and the α=1 walk are pinned in race_test.go,
// the hedge in hedge_test.go, QoS probe ordering in race_qos_test.go.

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/wire"
)

// fakeRouter ranks by absolute id difference and steps with TFindSucc.
type fakeRouter struct{}

func (*fakeRouter) Distance(target, c id.ID) uint64 {
	if c > target {
		return uint64(c - target)
	}
	return uint64(target - c)
}

func (*fakeRouter) LookupRequest(target id.ID) *wire.Message {
	return &wire.Message{Type: wire.TFindSucc, Target: target}
}

func (*fakeRouter) ParseLookupResponse(_ id.ID, resp *wire.Message) (wire.Contact, bool, []wire.Contact) {
	if resp.Done {
		return resp.Found, true, nil
	}
	return wire.Contact{}, false, []wire.Contact{resp.Next}
}

func (*fakeRouter) HasAux(id.ID) bool { return false }

func memContact(x id.ID) wire.Contact {
	return wire.Contact{ID: x, Addr: fmt.Sprintf("mem/%d", uint64(x))}
}

// scripted is a peer that redirects every lookup step to next — and
// names next as its only closer contact on a find-value step — counting
// the requests it received.
type scripted struct {
	c    wire.Contact
	hits atomic.Int64
}

func scriptedPeer(t *testing.T, nw *memnet.Network, x id.ID, next wire.Contact) *scripted {
	t.Helper()
	p := &scripted{c: memContact(x)}
	conn, err := nw.Listen(p.c.Addr)
	if err != nil {
		t.Fatal(err)
	}
	var tr *transport
	tr = newTransport(conn, p.c, func(m *wire.Message, src string) {
		p.hits.Add(1)
		resp := &wire.Message{Type: m.Type.Response(), MsgID: m.MsgID, From: p.c}
		if m.Type == wire.TFindValue {
			resp.Closest = []wire.Contact{next}
		} else {
			resp.Next = next
		}
		tr.send(src, resp)
	})
	tr.start()
	t.Cleanup(func() { tr.close() })
	return p
}

// chain starts n scripted peers 100, 200, …, each redirecting to the
// next; nobody listens at the last one's next.
func chain(t *testing.T, nw *memnet.Network, n int) []*scripted {
	peers := make([]*scripted, n)
	for i := range peers {
		peers[i] = scriptedPeer(t, nw, id.ID(100*(i+1)), memContact(id.ID(100*(i+2))))
	}
	return peers
}

// driver is a lookup on an anonymous endpoint: α 3, a 40ms attempt
// timeout (so a 10ms hedge), no retries.
func driver(t *testing.T, nw *memnet.Network, rt router, maxHops int) *lookup {
	t.Helper()
	conn, err := nw.Listen("mem/driver")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTransport(conn, wire.Contact{}, func(*wire.Message, string) {})
	tr.start()
	t.Cleanup(func() { tr.close() })
	return &lookup{tr: tr, rt: rt, alpha: 3, timeout: 40 * time.Millisecond, maxHops: maxHops}
}

// A walk that drains without an answer reports, in order of precedence,
// the last probe error, the hop budget, not-found (value mode), and no
// progress. Each case sets up the condition of its rank together with
// the one below it.
func TestLookupErrorPrecedence(t *testing.T) {
	const target = id.ID(1000)

	t.Run("probe error over hop budget", func(t *testing.T) {
		nw := memnet.New(1)
		peers := chain(t, nw, 4)
		dead := memContact(950) // nobody listens: its probe times out
		// The dead contact ranks first; the hedge launches the chain
		// beside it, which spends the budget of 3 before the dead probe
		// times out. The suspect hook runs on the race loop, the test's
		// own goroutine.
		l := driver(t, nw, &fakeRouter{}, 3)
		var suspects []string
		l.suspect = func(addr string) { suspects = append(suspects, addr) }
		out, err := l.race(target, []wire.Contact{dead, peers[0].c}, false, false)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err %v, want the dead probe's timeout", err)
		}
		if out.hops != 3 || peers[2].hits.Load() != 0 {
			t.Fatalf("%d probes, third chain peer hit %d times: want the budget of 3 spent", out.hops, peers[2].hits.Load())
		}
		if len(suspects) != 1 || suspects[0] != dead.Addr {
			t.Fatalf("suspected %v, want only the dead contact", suspects)
		}
	})

	t.Run("hop budget over not-found", func(t *testing.T) {
		nw := memnet.New(1)
		peers := chain(t, nw, 4)
		_, err := driver(t, nw, &fakeRouter{}, 3).race(target, []wire.Contact{peers[0].c}, true, false)
		if err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "exceeded 3 hops") {
			t.Fatalf("err %v, want the hop budget", err)
		}
	})

	// One peer that names only itself: nothing new to probe, inside the
	// budget. A value walk reports not-found, a lookup no progress.
	t.Run("not-found over no progress", func(t *testing.T) {
		nw := memnet.New(1)
		p := scriptedPeer(t, nw, 100, memContact(100))
		_, err := driver(t, nw, &fakeRouter{}, 3).race(target, []wire.Contact{p.c}, true, false)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("err %v, want ErrNotFound", err)
		}
	})

	t.Run("no progress", func(t *testing.T) {
		nw := memnet.New(1)
		p := scriptedPeer(t, nw, 100, memContact(100))
		_, err := driver(t, nw, &fakeRouter{}, 3).race(target, []wire.Contact{p.c}, false, false)
		if err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "no progress at 100@mem/100") {
			t.Fatalf("err %v, want no progress at the last peer that answered", err)
		}
	})
}

// The hop budget stops the walk: an endless redirect chain gets exactly
// maxHops probes, and the peers past the budget hear nothing.
func TestLookupHopBudgetStops(t *testing.T) {
	nw := memnet.New(1)
	peers := chain(t, nw, 6)
	out, err := driver(t, nw, &fakeRouter{}, 4).race(1000, []wire.Contact{peers[0].c}, false, false)
	if err == nil || !strings.Contains(err.Error(), "exceeded 4 hops") {
		t.Fatalf("err %v, want the hop budget", err)
	}
	if out.hops != 4 {
		t.Fatalf("%d probes launched, want 4", out.hops)
	}
	for i, p := range peers {
		want := int64(0)
		if i < 4 {
			want = 1
		}
		if got := p.hits.Load(); got != want {
			t.Fatalf("peer %d heard %d probes, want %d", p.c.ID, got, want)
		}
	}
}
