package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"peercache/internal/id"
	"peercache/internal/wire"
)

// The capacity bound: new keys are rejected once full, overwrites of
// known keys always succeed, and expiry frees capacity.
func TestStoreCapacityGlobalAcrossShards(t *testing.T) {
	now := time.Now()
	s := newStore(4, 0)
	keys := []id.ID{0x0001, 0x2001, 0x4001, 0x6001}
	for _, k := range keys {
		if _, ok := s.putOwned(k, []byte("v"), now); !ok {
			t.Fatalf("put %d rejected below capacity", k)
		}
	}
	if _, ok := s.putOwned(0x8001, []byte("v"), now); ok {
		t.Fatal("put accepted beyond global capacity")
	}
	if ok := s.applyReplica(0xA001, []byte("v"), 1, now); ok {
		t.Fatal("replica accepted beyond global capacity")
	}
	// Overwrites of known keys never count against capacity.
	if v, ok := s.putOwned(keys[0], []byte("v2"), now); !ok || v != 2 {
		t.Fatalf("overwrite at capacity: version %d ok %t, want 2 true", v, ok)
	}

	// Expiry during reconcile frees capacity for new keys.
	st := newStore(1, 10*time.Millisecond)
	st.putOwned(0x0001, []byte("v"), now)
	if _, ok := st.putOwned(0x2001, []byte("v"), now); ok {
		t.Fatal("second key accepted in capacity-1 store")
	}
	st.reconcile(now.Add(20*time.Millisecond), nil)
	if _, ok := st.putOwned(0x2001, []byte("v"), now.Add(20*time.Millisecond)); !ok {
		t.Fatal("capacity not reclaimed after expiry")
	}
}

// needFromDigest is the replica half of the anti-entropy protocol:
// absent, older, and checksum-divergent copies are requested; a current
// copy is not, and the digest match refreshes its TTL exactly as a
// redundant full push used to — the liveness signal that keeps healthy
// replicas out of the stranded-repair net.
func TestStoreNeedFromDigest(t *testing.T) {
	now := time.Now()
	s := newStore(10, time.Second)
	val := []byte("value")
	sum := valueSum(val)

	if !s.needFromDigest(42, 1, sum, now) {
		t.Error("absent key not requested")
	}
	s.applyReplica(42, val, 1, now)
	if s.needFromDigest(42, 1, sum, now) {
		t.Error("current copy requested")
	}
	if !s.needFromDigest(42, 2, sum, now) {
		t.Error("older copy not requested")
	}
	if !s.needFromDigest(42, 1, sum+1, now) {
		t.Error("checksum-divergent copy not requested")
	}
	// Expired copies count as absent.
	if !s.needFromDigest(42, 1, sum, now.Add(2*time.Second)) {
		t.Error("expired copy not requested")
	}

	// The TTL refresh: a matching digest at t+900ms must keep the copy
	// alive past its original t+1s expiry.
	s2 := newStore(10, time.Second)
	s2.applyReplica(7, val, 1, now)
	if s2.needFromDigest(7, 1, sum, now.Add(900*time.Millisecond)) {
		t.Fatal("current copy requested at 900ms")
	}
	if _, _, ok := s2.get(7, now.Add(1800*time.Millisecond)); !ok {
		t.Error("digest match did not refresh the TTL")
	}
}

// Parallel writers, readers, digest answers, and reconcile passes on
// keys spread across the id space — the store's contended paths under
// the race detector. Correctness assertions are minimal (no torn
// values, capacity never exceeded); the detector carries the test.
func TestStoreConcurrentAcrossShards(t *testing.T) {
	s := newStore(4096, time.Minute)
	const (
		workers = 8
		keysPer = 64
		rounds  = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := id.ID(w << 12) // one prefix region per worker, plus overlap below
			for r := 0; r < rounds; r++ {
				now := time.Now()
				for i := 0; i < keysPer; i++ {
					k := base + id.ID(i)
					val := []byte(fmt.Sprintf("w%d-r%d", w, r))
					s.putOwned(k, val, now)
					s.applyReplica(k+1, val, uint64(r+1), now)
					s.needFromDigest(k, uint64(r), valueSum(val), now)
					if v, _, ok := s.get(k, now); ok && len(v) == 0 {
						t.Error("torn read: empty value")
						return
					}
				}
				// Whole-store passes interleaved with the writes.
				s.reconcile(now, func(id.ID) bool { return true })
				s.owned()
				s.counts()
				s.staleReplicas(now, time.Hour, 8)
			}
		}(w)
	}
	wg.Wait()
	owned, replicas := s.counts()
	if owned+replicas > 4096 {
		t.Fatalf("store holds %d items, capacity 4096", owned+replicas)
	}
}

// replicateWireSize — the full-push-equivalent accounting — must match
// what the codec actually produces for a Replicate datagram, or the
// anti-entropy reduction ratio drifts from reality.
func TestReplicateWireSizeMatchesCodec(t *testing.T) {
	for _, valLen := range []int{0, 1, 100, 1024} {
		addr := "127.0.0.1:49152"
		m := &wire.Message{
			Type:    wire.TReplicate,
			MsgID:   1,
			From:    wire.Contact{ID: 12345, Addr: addr},
			Key:     67890,
			Value:   make([]byte, valLen),
			Version: 42,
		}
		b, err := wire.Encode(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if got, want := replicateWireSize(len(addr), valLen), uint64(len(b)); got != want {
			t.Errorf("replicateWireSize(addr=%d, value=%d) = %d, codec produced %d", len(addr), valLen, got, want)
		}
	}
}
