// Package wire defines the UDP message format of the live node runtime
// (internal/node): a fixed envelope — protocol version, message type,
// correlation MsgID, sender contact — followed by a type-specific
// payload, all in a compact binary encoding.
//
// The RPC set is the minimum the Chord maintenance protocol plus the
// paper's auxiliary-neighbor layer needs:
//
//   - Ping/Pong — liveness probes; the stabilization round also pings
//     auxiliary entries with these (Section III: auxiliary neighbors are
//     checked by the same ping process as core ones).
//   - FindSucc/FindSuccResp — one step of an *iterative* find-successor
//     lookup. The callee either resolves the target to its successor
//     (Done) or redirects the caller to the closest preceding entry of
//     its routing state (core fingers, successor list, and auxiliary
//     neighbors alike, which is how cached peers accelerate everyone's
//     lookups, not only the caching node's).
//   - GetPred/GetPredResp — stabilize: the successor reports its
//     predecessor and successor list.
//   - Notify/NotifyAck — the caller tells its successor "I might be
//     your predecessor".
//
// The data plane adds the item operations the routing layer exists to
// accelerate:
//
//   - Put/PutAck — store a value under a key at its owner. The caller
//     resolves the owner with the iterative lookup first; the owner
//     stores the value and acks with the version it assigned.
//   - Get/GetResp — fetch the value stored under a key from the node
//     believed to own (or hold a copy of) it.
//   - Replicate — one-way: an owner pushes a versioned copy of an owned
//     item to a successor. There is no ack; the replication ticker
//     re-sends the item each round it is still needed, so a lost
//     Replicate heals at the next tick (anti-entropy, not
//     acknowledgement).
//   - ReplicateDigest/ReplicateDigestResp — the anti-entropy summary
//     pair: instead of re-pushing every owned item every round, the
//     owner sends a digest of (key, version, value checksum) entries in
//     strictly ascending key order, delta-encoded with minimal uvarints
//     so a round's summary batches into few datagrams. The replica
//     answers with the Need list — the subset of keys whose local copy
//     is missing or older — and only those diffs travel as Replicate
//     pushes. A matching digest entry doubles as the replica's
//     freshness confirmation (it refreshes the copy's TTL exactly as a
//     redundant push used to). Full push remains the fallback when a
//     peer does not answer digests.
//
// The Pastry geometry (internal/node/pastryring) adds its own
// maintenance pair; Chord nodes never send or answer these, and the
// ring-agnostic runtime routes them to whichever geometry is active:
//
//   - RowExchange/RowExchangeResp — the callee returns its populated
//     prefix-routing-table rows. Sent to every node on a join walk (each
//     path node shares a prefix with the joiner one row deeper, so its
//     table seeds exactly the rows the joiner needs) and periodically to
//     one leaf.
//   - LeafProbe/LeafProbeResp — liveness probe of a leaf-set member
//     that doubles as gossip: the callee returns its leaf set, and folds
//     the caller into its own state (which is how a joiner announces
//     itself — a one-way LeafProbe to everyone it learned of).
//
// The Kademlia geometry (internal/node/kadring) adds the classic
// XOR-metric lookup pair, again routed by the runtime only when that
// geometry is active:
//
//   - FindNode/FindNodeResp — one step of an iterative XOR lookup. The
//     callee answers with the closest contacts it knows to Target
//     (strictly ascending by id, the canonical order; the caller re-ranks
//     by XOR distance itself) and, when it believes itself closest, the
//     resolved owner contact (Done/Found).
//   - FindValue/FindValueResp — the value-coupled variant: any node on
//     the path holding a copy of Key answers with the value directly
//     (OK), otherwise it redirects with its closest contacts exactly
//     like FindNodeResp.
//
// Encoding: varint-free fixed-width integers (uint64 big-endian for ids
// and MsgIDs, uint8 for counts, uint16 for value lengths) and
// length-prefixed UDP address strings. Every message fits comfortably in
// one datagram: the largest, a Put or Replicate carrying a full
// MaxValueLen value, is a little over 4 KiB.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"peercache/internal/id"
)

// Version is the protocol version carried in byte 0 of every datagram.
// Decode rejects anything else.
const Version = 1

// Type enumerates the message types.
type Type uint8

// The RPC set. Requests are even, their responses odd — Type.Response
// and Type.IsResponse rely on the pairing. TReplicate is the one
// exception: it is a one-way push with no paired response, so it takes
// an even (request) code and must never be used with Type.Response;
// the odd code after it (typeHole) is permanently unassigned and both
// Encode and Decode reject it, keeping the even/odd pairing intact for
// every later type.
const (
	TPing Type = iota
	TPong
	TFindSucc
	TFindSuccResp
	TGetPred
	TGetPredResp
	TNotify
	TNotifyAck
	TPut
	TPutAck
	TGet
	TGetResp
	TReplicate
	typeHole // 13: the response slot one-way TReplicate never uses; not a wire value
	TRowExchange
	TRowExchangeResp
	TLeafProbe
	TLeafProbeResp
	TFindNode
	TFindNodeResp
	TFindValue
	TFindValueResp
	TReplicateDigest
	TReplicateDigestResp
	typeCount // sentinel, not a wire value
)

// validType reports whether t may appear on the wire.
func validType(t Type) bool { return t < typeCount && t != typeHole }

// String implements fmt.Stringer for diagnostics.
func (t Type) String() string {
	switch t {
	case TPing:
		return "ping"
	case TPong:
		return "pong"
	case TFindSucc:
		return "find-succ"
	case TFindSuccResp:
		return "find-succ-resp"
	case TGetPred:
		return "get-pred"
	case TGetPredResp:
		return "get-pred-resp"
	case TNotify:
		return "notify"
	case TNotifyAck:
		return "notify-ack"
	case TPut:
		return "put"
	case TPutAck:
		return "put-ack"
	case TGet:
		return "get"
	case TGetResp:
		return "get-resp"
	case TReplicate:
		return "replicate"
	case TRowExchange:
		return "row-exchange"
	case TRowExchangeResp:
		return "row-exchange-resp"
	case TLeafProbe:
		return "leaf-probe"
	case TLeafProbeResp:
		return "leaf-probe-resp"
	case TFindNode:
		return "find-node"
	case TFindNodeResp:
		return "find-node-resp"
	case TFindValue:
		return "find-value"
	case TFindValueResp:
		return "find-value-resp"
	case TReplicateDigest:
		return "replicate-digest"
	case TReplicateDigestResp:
		return "replicate-digest-resp"
	}
	return fmt.Sprintf("wire.Type(%d)", uint8(t))
}

// IsResponse reports whether t is a response type.
func (t Type) IsResponse() bool { return t&1 == 1 }

// Response returns the response type paired with a request type. It
// panics on a response type — asking for the response to a response is a
// programming error — and on TReplicate, which is one-way by design: a
// replica push is repeated by the next anti-entropy round instead of
// being acknowledged.
func (t Type) Response() Type {
	if t.IsResponse() {
		panic(fmt.Sprintf("wire: %v is already a response", t))
	}
	if t == TReplicate {
		panic("wire: replicate is one-way and has no response")
	}
	return t + 1
}

// Contact is a routable peer: its ring identifier and UDP address. The
// simulator never needed addresses — ids indexed a global map — but on a
// real network every id a node learns is useless without a socket
// address to reach it at, so the two travel together everywhere.
type Contact struct {
	ID   id.ID
	Addr string
}

// IsZero reports whether c is the zero contact (used for "no value"
// slots such as an absent predecessor).
func (c Contact) IsZero() bool { return c.ID == 0 && c.Addr == "" }

// String implements fmt.Stringer.
func (c Contact) String() string { return fmt.Sprintf("%d@%s", uint64(c.ID), c.Addr) }

// Row is one populated slot of a Pastry-style prefix routing table:
// Index is the row number — the length of the identifier prefix the
// entry shares with the table's owner — and Entry the contact that
// occupies the slot. A RowExchangeResp carries rows in strictly
// ascending Index order (each node has exactly one slot per row), which
// the codec enforces so every row list has one canonical encoding.
type Row struct {
	Index uint8
	Entry Contact
}

// DigestEntry is one item summary in a ReplicateDigest: the key, the
// owner's current version, and an FNV-64a checksum of the value. A
// replica needs the item when it has no copy at Key, its copy is older
// than Version, or the version matches but the checksum does not (a
// divergent copy — possible only through corruption, but cheap to
// heal). Digest lists travel in strictly ascending key order; the codec
// enforces it, so every digest has exactly one encoding.
type DigestEntry struct {
	Key     id.ID
	Version uint64
	Sum     uint64
}

// Message is the decoded form of one datagram.
type Message struct {
	// Type selects which payload fields below are meaningful.
	Type Type
	// MsgID correlates a response with the request that caused it. The
	// caller allocates it; the callee echoes it.
	MsgID uint64
	// From identifies the sender. Receivers use it to learn live
	// contacts (notify, predecessor discovery) and to address replies.
	From Contact

	// Target is the lookup key (TFindSucc, TFindNode).
	Target id.ID
	// Done reports that Found resolves Target (TFindSuccResp,
	// TFindNodeResp). When false in a TFindSuccResp, Next is the closest
	// preceding contact to continue with.
	Done bool
	// Found is the resolved successor of Target (TFindSuccResp and
	// TFindNodeResp, Done).
	Found Contact
	// Next is the redirect contact (TFindSuccResp, !Done).
	Next Contact
	// HasPred reports whether Pred is meaningful (TGetPredResp).
	HasPred bool
	// Pred is a node between the requester and the callee that
	// recently took the callee for its successor, else the callee's
	// predecessor (TGetPredResp).
	Pred Contact
	// Succs is the callee's successor list, nearest first
	// (TGetPredResp).
	Succs []Contact
	// Rows is the callee's populated prefix-table rows, strictly
	// ascending by Row.Index (TRowExchangeResp).
	Rows []Row
	// Leaves is the callee's leaf set, clockwise side nearest-first
	// then counter-clockwise side nearest-first; on small rings the two
	// sides may repeat a contact (TLeafProbeResp).
	Leaves []Contact
	// Closest is the callee's closest known contacts to the requested
	// Target or Key, in strictly ascending id order — the canonical
	// encoding; callers re-rank by XOR distance locally (TFindNodeResp
	// always, TFindValueResp when !OK).
	Closest []Contact

	// Key is the item key (TPut, TGet, TReplicate, TFindValue).
	Key id.ID
	// OK reports success: the value was stored (TPutAck) or found
	// (TGetResp, TFindValueResp). When false the Value/Version fields
	// are absent.
	OK bool
	// Value is the item payload, at most MaxValueLen bytes (TPut,
	// TReplicate, and TGetResp/TFindValueResp when OK). A zero-length
	// value is legal and decodes as nil.
	Value []byte
	// Version is the owner-assigned item version: PutAck reports the
	// version the write received, GetResp and FindValueResp the version
	// served, Replicate the version pushed (TPutAck/TGetResp/
	// TFindValueResp when OK, TReplicate).
	Version uint64

	// Digest is the anti-entropy item summary, strictly ascending by
	// key — the canonical encoding (TReplicateDigest).
	Digest []DigestEntry
	// Need lists the keys from a digest whose local copy is missing or
	// stale, strictly ascending — the canonical encoding
	// (TReplicateDigestResp).
	Need []id.ID
}

// Limits enforced by the codec so a hostile datagram cannot make the
// decoder allocate unboundedly.
const (
	// MaxAddrLen bounds one contact address. 255 covers any
	// host:port and keeps the length prefix a single byte.
	MaxAddrLen = 255
	// MaxSuccs bounds the successor list carried by GetPredResp.
	MaxSuccs = 32
	// MaxValueLen bounds one item value (Put, GetResp, Replicate). The
	// cap keeps the largest datagram a little over 4 KiB — safely under
	// any UDP path MTU worth worrying about once fragmentation is
	// accepted, and small enough that a hostile datagram cannot make the
	// decoder allocate more than this per value.
	MaxValueLen = 4096
	// MaxRows bounds the prefix-table rows carried by RowExchangeResp
	// and is also the exclusive upper bound on Row.Index: a 64-bit
	// identifier space has at most 64 rows.
	MaxRows = 64
	// MaxLeaves bounds the leaf set carried by LeafProbeResp.
	MaxLeaves = 32
	// MaxClosest bounds the closest-contact list carried by
	// FindNodeResp and FindValueResp.
	MaxClosest = 16
	// MaxDigestEntries bounds one ReplicateDigest (and the Need list of
	// its response). 128 delta-encoded entries keep the worst-case
	// digest datagram (~3.6 KiB) inside the MaxValueLen envelope while
	// amortizing the per-datagram overhead across many items.
	MaxDigestEntries = 128
)

// MaxMessageLen is the longest datagram Encode can produce: the
// envelope plus the largest payload, a full RowExchangeResp with
// maximal addresses. A receive buffer of this size loses nothing — a
// longer datagram cannot decode whatever it is read into.
const MaxMessageLen = 2 + 8 + maxContactLen + 1 + MaxRows*(1+maxContactLen)

// maxContactLen is one encoded contact with a maximal address.
const maxContactLen = 8 + 1 + MaxAddrLen

// Decode errors.
var (
	ErrTruncated  = errors.New("wire: truncated message")
	ErrVersion    = errors.New("wire: unknown protocol version")
	ErrType       = errors.New("wire: unknown message type")
	ErrAddrLen    = errors.New("wire: address too long")
	ErrSuccCount  = errors.New("wire: successor list too long")
	ErrRowCount   = errors.New("wire: routing-table row list too long")
	ErrLeafCount  = errors.New("wire: leaf set too long")
	ErrClosest    = errors.New("wire: closest-contact list too long")
	ErrValueLen   = errors.New("wire: value too long")
	ErrTrailing   = errors.New("wire: trailing bytes after payload")
	ErrBadMessage = errors.New("wire: message fields inconsistent with type")
	ErrDigest     = errors.New("wire: digest list too long")
)

func appendValue(b []byte, v []byte) ([]byte, error) {
	if len(v) > MaxValueLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrValueLen, len(v))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(v)))
	return append(b, v...), nil
}

func readValue(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if n > MaxValueLen {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrValueLen, n)
	}
	if len(b) < n {
		return nil, nil, ErrTruncated
	}
	if n == 0 {
		return nil, b, nil // canonical: zero-length decodes as nil
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}

func appendContact(b []byte, c Contact) ([]byte, error) {
	if len(c.Addr) > MaxAddrLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrAddrLen, len(c.Addr))
	}
	b = binary.BigEndian.AppendUint64(b, uint64(c.ID))
	b = append(b, byte(len(c.Addr)))
	return append(b, c.Addr...), nil
}

func readContact(b []byte) (Contact, []byte, error) {
	if len(b) < 9 {
		return Contact{}, nil, ErrTruncated
	}
	c := Contact{ID: id.ID(binary.BigEndian.Uint64(b))}
	n := int(b[8])
	b = b[9:]
	if len(b) < n {
		return Contact{}, nil, ErrTruncated
	}
	c.Addr = string(b[:n])
	return c, b[n:], nil
}

// appendClosest serializes a closest-contact list, enforcing the
// canonical strictly-ascending-id order (which also forbids duplicate
// ids) so every list has exactly one encoding.
func appendClosest(b []byte, cs []Contact) ([]byte, error) {
	if len(cs) > MaxClosest {
		return nil, fmt.Errorf("%w: %d", ErrClosest, len(cs))
	}
	b = append(b, byte(len(cs)))
	var err error
	prev := id.ID(0)
	for i, c := range cs {
		if i > 0 && c.ID <= prev {
			return nil, fmt.Errorf("%w: closest id %d after %d", ErrBadMessage, c.ID, prev)
		}
		prev = c.ID
		if b, err = appendContact(b, c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// readClosest parses a closest-contact list, rejecting non-canonical
// (unsorted or duplicate-id) orderings.
func readClosest(b []byte) ([]Contact, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrTruncated
	}
	n := int(b[0])
	b = b[1:]
	if n > MaxClosest {
		return nil, nil, fmt.Errorf("%w: %d", ErrClosest, n)
	}
	var cs []Contact
	var err error
	prev := id.ID(0)
	for i := 0; i < n; i++ {
		var c Contact
		if c, b, err = readContact(b); err != nil {
			return nil, nil, err
		}
		if i > 0 && c.ID <= prev {
			return nil, nil, fmt.Errorf("%w: closest id %d after %d", ErrBadMessage, c.ID, prev)
		}
		prev = c.ID
		cs = append(cs, c)
	}
	return cs, b, nil
}

// uvarintLen is the number of bytes the minimal uvarint encoding of v
// occupies: 1 for zero, otherwise ceil(bits/7).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint parses one uvarint, rejecting truncation, 64-bit
// overflow, and — crucially for the canonical-encoding invariant —
// non-minimal forms (binary.Uvarint happily accepts 0x80 0x00 as zero;
// a codec whose decoder accepts two spellings of the same value cannot
// promise Encode(Decode(b)) == b).
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n == 0 {
		return 0, nil, ErrTruncated
	}
	if n < 0 {
		return 0, nil, fmt.Errorf("%w: uvarint overflows 64 bits", ErrBadMessage)
	}
	if n != uvarintLen(v) {
		return 0, nil, fmt.Errorf("%w: non-minimal uvarint", ErrBadMessage)
	}
	return v, b[n:], nil
}

// appendDigest serializes a digest list: a count byte, then per entry
// the key (first absolute, subsequent as strictly positive deltas — the
// list is canonical strictly-ascending, so deltas are small and the
// minimal uvarints short), the version as a uvarint, and the fixed
// 8-byte checksum.
func appendDigest(b []byte, es []DigestEntry) ([]byte, error) {
	if len(es) > MaxDigestEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrDigest, len(es))
	}
	b = append(b, byte(len(es)))
	prev := uint64(0)
	for i, e := range es {
		k := uint64(e.Key)
		if i == 0 {
			b = binary.AppendUvarint(b, k)
		} else {
			if k <= prev {
				return nil, fmt.Errorf("%w: digest key %d after %d", ErrBadMessage, k, prev)
			}
			b = binary.AppendUvarint(b, k-prev)
		}
		prev = k
		b = binary.AppendUvarint(b, e.Version)
		b = binary.BigEndian.AppendUint64(b, e.Sum)
	}
	return b, nil
}

// readDigest parses a digest list, rejecting non-canonical orderings
// (a zero delta or a delta that wraps the 64-bit key space both decode
// to a key ≤ its predecessor).
func readDigest(b []byte) ([]DigestEntry, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrTruncated
	}
	n := int(b[0])
	b = b[1:]
	if n > MaxDigestEntries {
		return nil, nil, fmt.Errorf("%w: %d entries", ErrDigest, n)
	}
	var es []DigestEntry
	var err error
	prev := uint64(0)
	for i := 0; i < n; i++ {
		var d uint64
		if d, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		k := d
		if i > 0 {
			k = prev + d
			if d == 0 || k <= prev {
				return nil, nil, fmt.Errorf("%w: digest key delta %d after key %d", ErrBadMessage, d, prev)
			}
		}
		prev = k
		var e DigestEntry
		e.Key = id.ID(k)
		if e.Version, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		if len(b) < 8 {
			return nil, nil, ErrTruncated
		}
		e.Sum = binary.BigEndian.Uint64(b)
		b = b[8:]
		es = append(es, e)
	}
	return es, b, nil
}

// appendNeed serializes a need list with the digest key encoding: count
// byte, then delta-encoded strictly-ascending keys.
func appendNeed(b []byte, keys []id.ID) ([]byte, error) {
	if len(keys) > MaxDigestEntries {
		return nil, fmt.Errorf("%w: %d keys", ErrDigest, len(keys))
	}
	b = append(b, byte(len(keys)))
	prev := uint64(0)
	for i, key := range keys {
		k := uint64(key)
		if i == 0 {
			b = binary.AppendUvarint(b, k)
		} else {
			if k <= prev {
				return nil, fmt.Errorf("%w: need key %d after %d", ErrBadMessage, k, prev)
			}
			b = binary.AppendUvarint(b, k-prev)
		}
		prev = k
	}
	return b, nil
}

// readNeed parses a need list, rejecting non-canonical orderings.
func readNeed(b []byte) ([]id.ID, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrTruncated
	}
	n := int(b[0])
	b = b[1:]
	if n > MaxDigestEntries {
		return nil, nil, fmt.Errorf("%w: %d keys", ErrDigest, n)
	}
	var keys []id.ID
	var err error
	prev := uint64(0)
	for i := 0; i < n; i++ {
		var d uint64
		if d, b, err = readUvarint(b); err != nil {
			return nil, nil, err
		}
		k := d
		if i > 0 {
			k = prev + d
			if d == 0 || k <= prev {
				return nil, nil, fmt.Errorf("%w: need key delta %d after key %d", ErrBadMessage, d, prev)
			}
		}
		prev = k
		keys = append(keys, id.ID(k))
	}
	return keys, b, nil
}

// Encode serializes m into a fresh buffer. It fails only on messages
// that violate the codec limits (oversized address or successor list)
// or carry an unknown type.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 64), m)
}

// AppendEncode serializes m appending to dst and returns the extended
// buffer, with Encode's exact semantics otherwise. It exists for hot
// send paths that recycle buffers: at cluster scale the per-message
// allocation in Encode was a measurable share of the live benchmark's
// profile, and appending into a pooled buffer removes it.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if !validType(m.Type) {
		return nil, fmt.Errorf("%w: %d", ErrType, uint8(m.Type))
	}
	b := append(dst, Version, byte(m.Type))
	b = binary.BigEndian.AppendUint64(b, m.MsgID)
	var err error
	if b, err = appendContact(b, m.From); err != nil {
		return nil, err
	}
	switch m.Type {
	case TPing, TPong, TGetPred, TNotify, TNotifyAck:
		// Envelope only.
	case TFindSucc:
		b = binary.BigEndian.AppendUint64(b, uint64(m.Target))
	case TFindSuccResp:
		if m.Done {
			b = append(b, 1)
			if b, err = appendContact(b, m.Found); err != nil {
				return nil, err
			}
		} else {
			b = append(b, 0)
			if b, err = appendContact(b, m.Next); err != nil {
				return nil, err
			}
		}
	case TGetPredResp:
		if m.HasPred {
			b = append(b, 1)
			if b, err = appendContact(b, m.Pred); err != nil {
				return nil, err
			}
		} else {
			b = append(b, 0)
		}
		if len(m.Succs) > MaxSuccs {
			return nil, fmt.Errorf("%w: %d", ErrSuccCount, len(m.Succs))
		}
		b = append(b, byte(len(m.Succs)))
		for _, s := range m.Succs {
			if b, err = appendContact(b, s); err != nil {
				return nil, err
			}
		}
	case TPut:
		b = binary.BigEndian.AppendUint64(b, uint64(m.Key))
		if b, err = appendValue(b, m.Value); err != nil {
			return nil, err
		}
	case TPutAck:
		if m.OK {
			b = append(b, 1)
			b = binary.BigEndian.AppendUint64(b, m.Version)
		} else {
			b = append(b, 0)
		}
	case TGet:
		b = binary.BigEndian.AppendUint64(b, uint64(m.Key))
	case TGetResp:
		if m.OK {
			b = append(b, 1)
			if b, err = appendValue(b, m.Value); err != nil {
				return nil, err
			}
			b = binary.BigEndian.AppendUint64(b, m.Version)
		} else {
			b = append(b, 0)
		}
	case TReplicate:
		b = binary.BigEndian.AppendUint64(b, uint64(m.Key))
		if b, err = appendValue(b, m.Value); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint64(b, m.Version)
	case TRowExchange, TLeafProbe:
		// Envelope only: the sender's contact is the whole request.
	case TRowExchangeResp:
		if len(m.Rows) > MaxRows {
			return nil, fmt.Errorf("%w: %d", ErrRowCount, len(m.Rows))
		}
		b = append(b, byte(len(m.Rows)))
		prev := -1
		for _, r := range m.Rows {
			if int(r.Index) <= prev || r.Index >= MaxRows {
				return nil, fmt.Errorf("%w: row index %d after %d", ErrBadMessage, r.Index, prev)
			}
			prev = int(r.Index)
			b = append(b, r.Index)
			if b, err = appendContact(b, r.Entry); err != nil {
				return nil, err
			}
		}
	case TLeafProbeResp:
		if len(m.Leaves) > MaxLeaves {
			return nil, fmt.Errorf("%w: %d", ErrLeafCount, len(m.Leaves))
		}
		b = append(b, byte(len(m.Leaves)))
		for _, c := range m.Leaves {
			if b, err = appendContact(b, c); err != nil {
				return nil, err
			}
		}
	case TFindNode:
		b = binary.BigEndian.AppendUint64(b, uint64(m.Target))
	case TFindNodeResp:
		if m.Done {
			b = append(b, 1)
			if b, err = appendContact(b, m.Found); err != nil {
				return nil, err
			}
		} else {
			b = append(b, 0)
		}
		if b, err = appendClosest(b, m.Closest); err != nil {
			return nil, err
		}
	case TFindValue:
		b = binary.BigEndian.AppendUint64(b, uint64(m.Key))
	case TFindValueResp:
		if m.OK {
			b = append(b, 1)
			if b, err = appendValue(b, m.Value); err != nil {
				return nil, err
			}
			b = binary.BigEndian.AppendUint64(b, m.Version)
		} else {
			b = append(b, 0)
			if b, err = appendClosest(b, m.Closest); err != nil {
				return nil, err
			}
		}
	case TReplicateDigest:
		if b, err = appendDigest(b, m.Digest); err != nil {
			return nil, err
		}
	case TReplicateDigestResp:
		if b, err = appendNeed(b, m.Need); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Decode parses one datagram. It accepts exactly what Encode produces:
// unknown versions or types, truncated payloads, over-limit lists, and
// trailing garbage are all errors, never panics — the input is whatever
// the network delivered.
func Decode(b []byte) (*Message, error) {
	if len(b) < 2 {
		return nil, ErrTruncated
	}
	if b[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, b[0])
	}
	m := &Message{Type: Type(b[1])}
	if !validType(m.Type) {
		return nil, fmt.Errorf("%w: %d", ErrType, b[1])
	}
	b = b[2:]
	if len(b) < 8 {
		return nil, ErrTruncated
	}
	m.MsgID = binary.BigEndian.Uint64(b)
	b = b[8:]
	var err error
	if m.From, b, err = readContact(b); err != nil {
		return nil, err
	}
	switch m.Type {
	case TPing, TPong, TGetPred, TNotify, TNotifyAck:
		// Envelope only.
	case TFindSucc:
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		m.Target = id.ID(binary.BigEndian.Uint64(b))
		b = b[8:]
	case TFindSuccResp:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("%w: done byte %d", ErrBadMessage, b[0])
		}
		m.Done = b[0] == 1
		b = b[1:]
		if m.Done {
			if m.Found, b, err = readContact(b); err != nil {
				return nil, err
			}
		} else {
			if m.Next, b, err = readContact(b); err != nil {
				return nil, err
			}
		}
	case TGetPredResp:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("%w: has-pred byte %d", ErrBadMessage, b[0])
		}
		m.HasPred = b[0] == 1
		b = b[1:]
		if m.HasPred {
			if m.Pred, b, err = readContact(b); err != nil {
				return nil, err
			}
		}
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		n := int(b[0])
		b = b[1:]
		if n > MaxSuccs {
			return nil, fmt.Errorf("%w: %d", ErrSuccCount, n)
		}
		if n > 0 {
			m.Succs = make([]Contact, n)
			for i := range m.Succs {
				if m.Succs[i], b, err = readContact(b); err != nil {
					return nil, err
				}
			}
		}
	case TPut:
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		m.Key = id.ID(binary.BigEndian.Uint64(b))
		if m.Value, b, err = readValue(b[8:]); err != nil {
			return nil, err
		}
	case TPutAck:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("%w: ok byte %d", ErrBadMessage, b[0])
		}
		m.OK = b[0] == 1
		b = b[1:]
		if m.OK {
			if len(b) < 8 {
				return nil, ErrTruncated
			}
			m.Version = binary.BigEndian.Uint64(b)
			b = b[8:]
		}
	case TGet:
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		m.Key = id.ID(binary.BigEndian.Uint64(b))
		b = b[8:]
	case TGetResp:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("%w: ok byte %d", ErrBadMessage, b[0])
		}
		m.OK = b[0] == 1
		b = b[1:]
		if m.OK {
			if m.Value, b, err = readValue(b); err != nil {
				return nil, err
			}
			if len(b) < 8 {
				return nil, ErrTruncated
			}
			m.Version = binary.BigEndian.Uint64(b)
			b = b[8:]
		}
	case TReplicate:
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		m.Key = id.ID(binary.BigEndian.Uint64(b))
		if m.Value, b, err = readValue(b[8:]); err != nil {
			return nil, err
		}
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		m.Version = binary.BigEndian.Uint64(b)
		b = b[8:]
	case TRowExchange, TLeafProbe:
		// Envelope only.
	case TRowExchangeResp:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		n := int(b[0])
		b = b[1:]
		if n > MaxRows {
			return nil, fmt.Errorf("%w: %d", ErrRowCount, n)
		}
		prev := -1
		for i := 0; i < n; i++ {
			if len(b) < 1 {
				return nil, ErrTruncated
			}
			r := Row{Index: b[0]}
			b = b[1:]
			if int(r.Index) <= prev || r.Index >= MaxRows {
				return nil, fmt.Errorf("%w: row index %d after %d", ErrBadMessage, r.Index, prev)
			}
			prev = int(r.Index)
			if r.Entry, b, err = readContact(b); err != nil {
				return nil, err
			}
			m.Rows = append(m.Rows, r)
		}
	case TLeafProbeResp:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		n := int(b[0])
		b = b[1:]
		if n > MaxLeaves {
			return nil, fmt.Errorf("%w: %d", ErrLeafCount, n)
		}
		if n > 0 {
			m.Leaves = make([]Contact, n)
			for i := range m.Leaves {
				if m.Leaves[i], b, err = readContact(b); err != nil {
					return nil, err
				}
			}
		}
	case TFindNode:
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		m.Target = id.ID(binary.BigEndian.Uint64(b))
		b = b[8:]
	case TFindNodeResp:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("%w: done byte %d", ErrBadMessage, b[0])
		}
		m.Done = b[0] == 1
		b = b[1:]
		if m.Done {
			if m.Found, b, err = readContact(b); err != nil {
				return nil, err
			}
		}
		if m.Closest, b, err = readClosest(b); err != nil {
			return nil, err
		}
	case TFindValue:
		if len(b) < 8 {
			return nil, ErrTruncated
		}
		m.Key = id.ID(binary.BigEndian.Uint64(b))
		b = b[8:]
	case TFindValueResp:
		if len(b) < 1 {
			return nil, ErrTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("%w: ok byte %d", ErrBadMessage, b[0])
		}
		m.OK = b[0] == 1
		b = b[1:]
		if m.OK {
			if m.Value, b, err = readValue(b); err != nil {
				return nil, err
			}
			if len(b) < 8 {
				return nil, ErrTruncated
			}
			m.Version = binary.BigEndian.Uint64(b)
			b = b[8:]
		} else {
			if m.Closest, b, err = readClosest(b); err != nil {
				return nil, err
			}
		}
	case TReplicateDigest:
		if m.Digest, b, err = readDigest(b); err != nil {
			return nil, err
		}
	case TReplicateDigestResp:
		if m.Need, b, err = readNeed(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailing, len(b))
	}
	return m, nil
}
