package node

import (
	"sync/atomic"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/wire"
)

// pingTap counts the TPing datagrams an endpoint sends and receives.
type pingTap struct {
	PacketConn
	sent, got atomic.Int64
}

func isPing(b []byte) bool {
	m, err := wire.Decode(b)
	return err == nil && m.Type == wire.TPing
}

func (p *pingTap) WriteTo(b []byte, addr string) (int, error) {
	if isPing(b) {
		p.sent.Add(1)
	}
	return p.PacketConn.WriteTo(b, addr)
}

func (p *pingTap) ReadFrom(b []byte) (int, string, error) {
	n, from, err := p.PacketConn.ReadFrom(b)
	if err == nil && isPing(b[:n]) {
		p.got.Add(1)
	}
	return n, from, err
}

// tappedNode starts a parked, unjoined node on nw behind a pingTap.
func tappedNode(t *testing.T, nw *memnet.Network, space id.Space, x id.ID) (*Node, *pingTap) {
	t.Helper()
	tap := &pingTap{}
	cfg := memConfig(nw, space, x)
	cfg.Scheduler = &parked{}
	cfg.DisableHealProbe = true
	cfg.RPCTimeout = 50 * time.Millisecond
	cfg.RPCRetries = 1
	cfg.Listen = func(addr string) (PacketConn, error) {
		ep, err := nw.Listen(addr)
		if err != nil {
			return nil, err
		}
		tap.PacketConn = ep
		return tap, nil
	}
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n, tap
}

// Aux entries that share an address — owner-aliased pointers at two
// hot keys of one owner, beside a direct pointer at the owner itself —
// cost that owner one liveness ping per stabilize round, not one per
// entry; and when that one ping fails, every entry at the address goes.
func TestAuxPingOncePerAddress(t *testing.T) {
	space := id.NewSpace(16)
	nw := memnet.New(1)
	defer nw.CloseAll()
	a, aTap := tappedNode(t, nw, space, 1000)
	b, bTap := tappedNode(t, nw, space, 40000)

	// a is a ring of one, so its own Stabilize sends nothing: every ping
	// below is an aux liveness ping.
	a.rt.SetAux([]wire.Contact{
		{ID: 35000, Addr: b.Addr()},
		{ID: 36000, Addr: b.Addr()},
		{ID: b.ID(), Addr: b.Addr()},
	})
	for round := 1; round <= 3; round++ {
		a.stabilize()
		if got := bTap.got.Load(); got != int64(round) {
			t.Fatalf("after %d stabilize rounds the owner received %d pings, want %d", round, got, round)
		}
		if got := len(a.Aux()); got != 3 {
			t.Fatalf("round %d: %d aux entries left of 3 to a live owner", round, got)
		}
	}

	b.Close()
	sentBefore := aTap.sent.Load()
	a.stabilize()
	if got := a.Aux(); len(got) != 0 {
		t.Fatalf("entries at the dead owner's address survived: %v", got)
	}
	if got := aTap.sent.Load() - sentBefore; got != int64(1+a.cfg.RPCRetries) {
		t.Fatalf("the dead address cost %d ping attempts, want %d (one RPC)", got, 1+a.cfg.RPCRetries)
	}
}
