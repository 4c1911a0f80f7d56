package chordring

import (
	"fmt"
	"testing"

	"peercache/internal/id"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// stubHost satisfies ring.Host with a canned resolver so RepairTable
// can be driven without a network: Resolve answers every target with
// the first ring member clockwise of it. Call goes to the call hook, and
// fails when there is none. Alive stands in for the runtime's liveness
// record: an address in heard answers without I/O, any other costs one
// TPing through Call, and a failed ping drops the peer at the address
// ("mem/<id>") from rt, as the runtime's check does.
type stubHost struct {
	space    id.Space
	self     wire.Contact
	members  []id.ID // sorted ascending
	resolves int
	call     func(addr string, req *wire.Message) (*wire.Message, error)
	heard    map[string]bool
	rt       *Ring
}

func (h *stubHost) Self() wire.Contact { return h.self }
func (h *stubHost) Space() id.Space    { return h.space }
func (h *stubHost) Call(addr string, req *wire.Message) (*wire.Message, error) {
	if h.call == nil {
		return nil, fmt.Errorf("stub: no rpc")
	}
	return h.call(addr, req)
}
func (h *stubHost) Send(addr string, m *wire.Message) {}
func (h *stubHost) Note(c wire.Contact)               {}
func (h *stubHost) Alive(addr string) bool {
	if h.heard[addr] {
		return true
	}
	if _, err := h.Call(addr, &wire.Message{Type: wire.TPing}); err == nil {
		return true
	}
	var x id.ID
	if _, err := fmt.Sscanf(addr, "mem/%d", &x); err == nil {
		h.rt.DropPeer(x)
	}
	return false
}
func (h *stubHost) Resolve(target id.ID) (wire.Contact, int, error) {
	h.resolves++
	for _, m := range h.members {
		if m >= target {
			return wire.Contact{ID: m, Addr: fmt.Sprintf("mem/%d", m)}, 1, nil
		}
	}
	return wire.Contact{ID: h.members[0], Addr: fmt.Sprintf("mem/%d", h.members[0])}, 1, nil
}

func newTestRing(t testing.TB, h *stubHost, batch int) *Ring {
	t.Helper()
	rt, err := New(h, ring.Options{
		NeighborListLen: 4,
		MaxLookupHops:   32,
		RepairBatch:     batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.rt = rt.(*Ring)
	return h.rt
}

// TestRepairTableBatch: one RepairTable call refreshes RepairBatch
// fingers (one resolve each), advancing the round-robin cursor by the
// batch — so a batch of b converges the full table in bits/b calls
// where the default needs bits.
func TestRepairTableBatch(t *testing.T) {
	space := id.NewSpace(8)
	members := []id.ID{10, 80, 150, 220}
	for _, batch := range []int{0, 1, 4, 8, 100} {
		h := &stubHost{space: space, self: wire.Contact{ID: 10, Addr: "mem/10"}, members: members}
		r := newTestRing(t, h, batch)
		want := batch
		if want < 1 {
			want = 1
		}
		if want > int(space.Bits()) {
			want = int(space.Bits()) // clamped: no point lapping the table in one call
		}
		r.RepairTable()
		if h.resolves != want {
			t.Errorf("batch=%d: one call made %d resolves, want %d", batch, h.resolves, want)
		}
	}
}

// TestRepairTableBatchConverges: with batch = bits, a single call
// populates exactly the fingers the converged oracle expects — the same
// entries the default cadence reaches only after bits calls.
func TestRepairTableBatchConverges(t *testing.T) {
	space := id.NewSpace(8)
	members := []id.ID{10, 80, 150, 220}
	h := &stubHost{space: space, self: wire.Contact{ID: 10, Addr: "mem/10"}, members: members}
	batched := newTestRing(t, h, int(space.Bits()))
	batched.RepairTable()

	h2 := &stubHost{space: space, self: wire.Contact{ID: 10, Addr: "mem/10"}, members: members}
	serial := newTestRing(t, h2, 1)
	for i := 0; i < int(space.Bits()); i++ {
		serial.RepairTable()
	}

	got, want := batched.TableList(), serial.TableList()
	if len(got) == 0 {
		t.Fatal("batched repair populated no fingers")
	}
	if len(got) != len(want) {
		t.Fatalf("batched table %v differs from serial %v", got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("finger list diverges at %d: batched %v, serial %v", i, got, want)
		}
	}
}
