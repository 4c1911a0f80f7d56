package node

import (
	"sync"
	"time"

	"peercache/internal/id"
)

// itemKind distinguishes the two authorities a stored item can carry.
// Cached copies picked up on the GET path are NOT stored here — they
// live in the node's bounded TTL cache (itemcache.TTLCache), where
// staleness is acceptable and capacity pressure evicts freely. The
// store only holds data the node is answerable for.
type itemKind uint8

const (
	// kindOwned: this node is (or believes it is) the key's successor;
	// it accepted the PUT, assigns versions, and replicates the item.
	kindOwned itemKind = iota
	// kindReplica: a copy pushed by an owner for durability. Replicas
	// answer GETs and are promoted to owned when ring responsibility
	// shifts onto this node (owner failure, partition reorganization).
	kindReplica
)

// storedItem is one key's state in the store.
type storedItem struct {
	value   []byte
	version uint64
	// sum is the FNV-64a checksum of value, maintained on every write so
	// the anti-entropy digest can summarize an item in 8 bytes without
	// rehashing the whole store each round.
	sum  uint64
	kind itemKind
	// refreshed is the wall-clock time of the last write or replica
	// refresh; the optional store TTL expires items against it.
	refreshed time.Time
}

// ownedItem is the replication ticker's snapshot of one owned item.
type ownedItem struct {
	key     id.ID
	value   []byte
	version uint64
	sum     uint64
}

// valueSum is the FNV-64a hash of a value — the checksum carried by
// anti-entropy digests. Inlined rather than hash/fnv to stay
// allocation-free on the write path.
func valueSum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// store is the node's capacity-bounded item store: one map under one
// mutex. Unlike a cache it never evicts to make room: losing owned or
// replicated data silently would break the durability the replication
// layer exists to provide, so a full store rejects new keys instead
// (the PutAck carries the refusal back to the writer). Methods never
// perform I/O, so the packet handler can call them from the read loop.
//
// One lock domain is enough: against 16 prefix-keyed ones it sits
// inside every end-to-end bound of the benchmark's pastry_kv_mixed
// workload (docs/BENCHMARKS.md).
type store struct {
	mu       sync.Mutex
	items    map[id.ID]*storedItem
	capacity int
	ttl      time.Duration // 0 = items never expire
}

// storeShards is the store's lock-domain count, still reported by
// Metrics.StoreShards.
const storeShards = 1

func newStore(capacity int, ttl time.Duration) *store {
	return &store{items: make(map[id.ID]*storedItem), capacity: capacity, ttl: ttl}
}

// putOwned applies a local or remote PUT: the node stores the value as
// owner and assigns the next version (1 for a new key). A full store
// rejects new keys (ok=false) but always accepts overwrites of known
// ones. An incoming PUT also re-asserts ownership: a key held as
// replica flips to owned, because the writer just resolved this node as
// the key's successor.
func (s *store) putOwned(key id.ID, value []byte, now time.Time) (version uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it, exists := s.items[key]; exists {
		it.value = append([]byte(nil), value...)
		it.version++
		it.sum = valueSum(value)
		it.kind = kindOwned
		it.refreshed = now
		return it.version, true
	}
	if len(s.items) >= s.capacity {
		return 0, false
	}
	s.items[key] = &storedItem{
		value:     append([]byte(nil), value...),
		version:   1,
		sum:       valueSum(value),
		kind:      kindOwned,
		refreshed: now,
	}
	return 1, true
}

// applyReplica merges a replica push. A strictly newer version always
// wins (value and version update, kind is preserved — an owner learning
// of a newer write keeps ownership); an equal or older version only
// refreshes the TTL of an existing replica. New keys are stored as
// replicas unless the store is full, in which case the push is dropped —
// the owner's next anti-entropy round will retry, and by then either
// capacity or membership has changed.
func (s *store) applyReplica(key id.ID, value []byte, version uint64, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it, exists := s.items[key]; exists {
		if version > it.version {
			it.value = append([]byte(nil), value...)
			it.version = version
			it.sum = valueSum(value)
		}
		it.refreshed = now
		return true
	}
	if len(s.items) >= s.capacity {
		return false
	}
	s.items[key] = &storedItem{
		value:     append([]byte(nil), value...),
		version:   version,
		sum:       valueSum(value),
		kind:      kindReplica,
		refreshed: now,
	}
	return true
}

// needFromDigest answers one anti-entropy digest entry: does this node
// need the owner to ship (key, version)? Yes when the key is absent
// (or expired), the local copy is older, or the version matches but the
// checksum does not (a divergent copy — corruption, but 8 bytes to
// detect and one push to heal). When the local copy is current, the
// digest doubles as the owner's liveness signal for the key: the
// refreshed stamp is bumped exactly as a redundant full push used to,
// which is what keeps healthy replicas out of the stranded-repair
// pass's staleness net.
func (s *store) needFromDigest(key id.ID, version, sum uint64, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, exists := s.items[key]
	if !exists || s.expiredLocked(it, now) {
		return true
	}
	if it.version < version || (it.version == version && it.sum != sum) {
		return true
	}
	it.refreshed = now
	return false
}

// get returns the stored value and version for key, owned and replica
// alike — a replica answering a GET is the point of keeping it.
func (s *store) get(key id.ID, now time.Time) (value []byte, version uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, exists := s.items[key]
	if !exists || s.expiredLocked(it, now) {
		return nil, 0, false
	}
	return it.value, it.version, true
}

func (s *store) expiredLocked(it *storedItem, now time.Time) bool {
	return s.ttl > 0 && now.Sub(it.refreshed) >= s.ttl
}

// reconcile is the replication ticker's bookkeeping pass: expired items
// are dropped, replicas of keys this node has become responsible for are
// promoted to owned, and owned items whose keys have moved out of the
// node's range are demoted to replicas and returned for handoff to the
// new owner. responsible reports whether a key falls in the node's
// current ownership range; a node whose predecessor is unknown cannot
// judge responsibility and must pass nil, which skips promotion and
// demotion for the round (data is never reclassified on guesswork).
func (s *store) reconcile(now time.Time, responsible func(id.ID) bool) (promoted int, handoff []ownedItem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, it := range s.items {
		if s.expiredLocked(it, now) {
			delete(s.items, key)
			continue
		}
		if responsible == nil {
			continue
		}
		switch {
		case it.kind == kindReplica && responsible(key):
			it.kind = kindOwned
			promoted++
		case it.kind == kindOwned && !responsible(key):
			it.kind = kindReplica
			handoff = append(handoff, ownedItem{key: key, value: it.value, version: it.version, sum: it.sum})
		}
	}
	return promoted, handoff
}

// owned snapshots every owned item for the replication round. Values are
// aliased, not copied: the store never mutates a stored value in place
// (putOwned and applyReplica replace the slice), so the snapshot is safe
// to encode concurrently.
func (s *store) owned() []ownedItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ownedItem
	for key, it := range s.items {
		if it.kind == kindOwned {
			out = append(out, ownedItem{key: key, value: it.value, version: it.version, sum: it.sum})
		}
	}
	return out
}

// staleReplicas returns up to max replica items whose last refresh is
// older than now−olderThan. A live owner refreshes every replica each
// replication period — with a full push before the digest protocol,
// with a digest confirmation now — so a replica this stale has no owner
// maintaining it: the signature of a key stranded by a failed handoff
// (owner crashed after demotion, push lost across a partition).
// Returned items have their refreshed stamp bumped, which both paces
// the repair (a key is re-examined one staleness period later, not
// every tick) and keeps the store TTL from reaping data the repair loop
// is actively re-homing.
func (s *store) staleReplicas(now time.Time, olderThan time.Duration, max int) []ownedItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ownedItem
	for key, it := range s.items {
		if it.kind != kindReplica || now.Sub(it.refreshed) < olderThan {
			continue
		}
		it.refreshed = now
		out = append(out, ownedItem{key: key, value: it.value, version: it.version, sum: it.sum})
		if len(out) >= max {
			break
		}
	}
	return out
}

// info reports one key's state including its authority, for
// introspection: checkers counting owners across a cluster need to
// distinguish an owned copy from a replica, which get deliberately
// hides.
func (s *store) info(key id.ID, now time.Time) (value []byte, version uint64, owned, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, exists := s.items[key]
	if !exists || s.expiredLocked(it, now) {
		return nil, 0, false, false
	}
	return it.value, it.version, it.kind == kindOwned, true
}

// counts returns the current owned and replica item counts.
func (s *store) counts() (owned, replicas int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, it := range s.items {
		if it.kind == kindOwned {
			owned++
		} else {
			replicas++
		}
	}
	return owned, replicas
}
