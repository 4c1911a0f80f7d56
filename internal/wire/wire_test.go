package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"peercache/internal/id"
)

// randContact draws a contact with an address of plausible shape and
// length (including the occasional empty one).
func randContact(rng *rand.Rand) Contact {
	n := rng.Intn(24)
	addr := make([]byte, n)
	const alphabet = "0123456789.:abcdef[]"
	for i := range addr {
		addr[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return Contact{ID: id.ID(rng.Uint64()), Addr: string(addr)}
}

// randMessage draws a canonical message: only the fields meaningful for
// the drawn type are populated, matching what the runtime sends.
func randMessage(rng *rand.Rand) *Message {
	m := &Message{
		Type:  Type(rng.Intn(int(typeCount))),
		MsgID: rng.Uint64(),
		From:  randContact(rng),
	}
	if m.Type == typeHole {
		m.Type = TRowExchange // the unassigned slot never goes on the wire
	}
	switch m.Type {
	case TFindSucc:
		m.Target = id.ID(rng.Uint64())
	case TFindSuccResp:
		m.Done = rng.Intn(2) == 0
		if m.Done {
			m.Found = randContact(rng)
		} else {
			m.Next = randContact(rng)
		}
	case TGetPredResp:
		m.HasPred = rng.Intn(2) == 0
		if m.HasPred {
			m.Pred = randContact(rng)
		}
		if n := rng.Intn(MaxSuccs + 1); n > 0 {
			m.Succs = make([]Contact, n)
			for i := range m.Succs {
				m.Succs[i] = randContact(rng)
			}
		}
	case TPut:
		m.Key = id.ID(rng.Uint64())
		m.Value = randValue(rng)
	case TPutAck:
		m.OK = rng.Intn(2) == 0
		if m.OK {
			m.Version = rng.Uint64()
		}
	case TGet:
		m.Key = id.ID(rng.Uint64())
	case TGetResp:
		m.OK = rng.Intn(2) == 0
		if m.OK {
			m.Value = randValue(rng)
			m.Version = rng.Uint64()
		}
	case TReplicate:
		m.Key = id.ID(rng.Uint64())
		m.Value = randValue(rng)
		m.Version = rng.Uint64()
	case TRowExchangeResp:
		if n := rng.Intn(MaxRows + 1); n > 0 {
			idx := rng.Perm(MaxRows)[:n]
			sort.Ints(idx)
			m.Rows = make([]Row, n)
			for i := range m.Rows {
				m.Rows[i] = Row{Index: uint8(idx[i]), Entry: randContact(rng)}
			}
		}
	case TLeafProbeResp:
		if n := rng.Intn(MaxLeaves + 1); n > 0 {
			m.Leaves = make([]Contact, n)
			for i := range m.Leaves {
				m.Leaves[i] = randContact(rng)
			}
		}
	case TFindNode:
		m.Target = id.ID(rng.Uint64())
	case TFindNodeResp:
		m.Done = rng.Intn(2) == 0
		if m.Done {
			m.Found = randContact(rng)
		}
		m.Closest = randClosest(rng)
	case TFindValue:
		m.Key = id.ID(rng.Uint64())
	case TFindValueResp:
		m.OK = rng.Intn(2) == 0
		if m.OK {
			m.Value = randValue(rng)
			m.Version = rng.Uint64()
		} else {
			m.Closest = randClosest(rng)
		}
	case TReplicateDigest:
		m.Digest = randDigest(rng)
	case TReplicateDigestResp:
		m.Need = randDigestKeys(rng)
	}
	return m
}

// randDigestKeys draws a canonical digest key list: distinct keys in
// strictly ascending order, nil about a quarter of the time, with a
// bias toward clustered keys so the delta encoding's short-varint path
// is exercised alongside 64-bit jumps.
func randDigestKeys(rng *rand.Rand) []id.ID {
	n := rng.Intn(MaxDigestEntries + 1)
	if n == 0 {
		return nil
	}
	seen := make(map[id.ID]bool, n)
	keys := make([]id.ID, 0, n)
	for len(keys) < n {
		var k id.ID
		if rng.Intn(2) == 0 && len(keys) > 0 {
			k = keys[len(keys)-1] + id.ID(1+rng.Intn(1000))
		} else {
			k = id.ID(rng.Uint64())
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// randDigest draws a canonical digest list over randDigestKeys.
func randDigest(rng *rand.Rand) []DigestEntry {
	keys := randDigestKeys(rng)
	if len(keys) == 0 {
		return nil
	}
	es := make([]DigestEntry, len(keys))
	for i, k := range keys {
		es[i] = DigestEntry{Key: k, Version: rng.Uint64() >> uint(rng.Intn(64)), Sum: rng.Uint64()}
	}
	return es
}

// randClosest draws a canonical closest-contact list: distinct ids in
// strictly ascending order, nil about a third of the time.
func randClosest(rng *rand.Rand) []Contact {
	n := rng.Intn(MaxClosest + 1)
	if n == 0 {
		return nil
	}
	ids := make(map[id.ID]bool, n)
	cs := make([]Contact, 0, n)
	for len(cs) < n {
		c := randContact(rng)
		if ids[c.ID] {
			continue
		}
		ids[c.ID] = true
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID < cs[j].ID })
	return cs
}

// randValue draws a value of plausible length — nil about a quarter of
// the time (zero-length values decode as nil, so canonical messages
// never carry a non-nil empty slice), occasionally at the MaxValueLen
// limit.
func randValue(rng *rand.Rand) []byte {
	var n int
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		n = MaxValueLen - rng.Intn(2)
	default:
		n = 1 + rng.Intn(64)
	}
	v := make([]byte, n)
	rng.Read(v)
	return v
}

// Property: Decode(Encode(m)) == m for every canonical message.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		m := randMessage(rng)
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("#%d encode %+v: %v", i, m, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("#%d decode %+v: %v", i, m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("#%d round trip:\n sent %+v\n got  %+v", i, m, got)
		}
	}
}

// Property: every strict prefix of a valid encoding fails with a decode
// error, never a panic, never a bogus success.
func TestTruncationsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		b, err := Encode(randMessage(rng))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(b[:cut]); err == nil {
				t.Fatalf("#%d: decode succeeded on %d/%d-byte prefix", i, cut, len(b))
			}
		}
	}
}

// Property: appending any byte to a valid encoding is rejected.
func TestTrailingBytesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		b, err := Encode(randMessage(rng))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(append(b, byte(rng.Intn(256)))); err == nil {
			t.Fatalf("#%d: decode accepted trailing byte", i)
		}
	}
}

func TestDecodeRejectsBadEnvelope(t *testing.T) {
	valid, err := Encode(&Message{Type: TPing, MsgID: 7, From: Contact{ID: 1, Addr: "127.0.0.1:9000"}})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), valid...)
	bad[0] = Version + 1
	if _, err := Decode(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	bad = append([]byte(nil), valid...)
	bad[1] = byte(typeCount)
	if _, err := Decode(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty datagram accepted")
	}
}

func TestEncodeRejectsOversize(t *testing.T) {
	long := make([]byte, MaxAddrLen+1)
	if _, err := Encode(&Message{Type: TPing, From: Contact{Addr: string(long)}}); err == nil {
		t.Fatal("oversized address accepted")
	}
	m := &Message{Type: TGetPredResp, Succs: make([]Contact, MaxSuccs+1)}
	if _, err := Encode(m); err == nil {
		t.Fatal("oversized successor list accepted")
	}
	if _, err := Encode(&Message{Type: typeCount}); err == nil {
		t.Fatal("unknown type accepted")
	}
	big := make([]byte, MaxValueLen+1)
	for _, typ := range []Type{TPut, TReplicate} {
		if _, err := Encode(&Message{Type: typ, Value: big}); err == nil {
			t.Fatalf("%v: oversized value accepted", typ)
		}
	}
	if _, err := Encode(&Message{Type: TGetResp, OK: true, Value: big}); err == nil {
		t.Fatal("get-resp: oversized value accepted")
	}
}

// A decoded value length may not exceed MaxValueLen even when the
// datagram carries that many bytes: the length prefix is 16-bit, so
// without the check a hostile sender could make receivers hold 64 KiB
// per message.
func TestDecodeRejectsOversizedValue(t *testing.T) {
	ok, err := Encode(&Message{Type: TPut, Key: 5, Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	// The value length prefix sits after envelope + 8-byte key; patch it
	// to MaxValueLen+1 and pad the payload to match.
	cut := len(ok) - 3 // 2-byte length + 1 value byte
	bad := append([]byte(nil), ok[:cut]...)
	bad = append(bad, byte((MaxValueLen+1)>>8), byte((MaxValueLen+1)&0xff))
	bad = append(bad, make([]byte, MaxValueLen+1)...)
	if _, err := Decode(bad); err == nil {
		t.Fatal("oversized value length accepted")
	}
}

// Empty values are canonical as nil: an encoded zero-length value must
// decode to a nil slice so the fuzz round-trip invariant holds.
func TestEmptyValueDecodesNil(t *testing.T) {
	b, err := Encode(&Message{Type: TPut, Key: 9, Value: []byte{}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Value != nil {
		t.Fatalf("zero-length value decoded as %#v, want nil", m.Value)
	}
}

// The unassigned type slot after one-way TReplicate must never pass the
// codec in either direction, or a stray datagram could smuggle a type
// the runtime has no handler contract for.
func TestTypeHoleRejected(t *testing.T) {
	if _, err := Encode(&Message{Type: typeHole}); !errors.Is(err, ErrType) {
		t.Fatalf("encode of hole type: %v, want ErrType", err)
	}
	valid, err := Encode(&Message{Type: TPing, From: Contact{ID: 1, Addr: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	valid[1] = byte(typeHole)
	if _, err := Decode(valid); !errors.Is(err, ErrType) {
		t.Fatalf("decode of hole type: %v, want ErrType", err)
	}
}

// Row lists have one canonical encoding: strictly ascending indexes
// below MaxRows. Duplicates, descending order, out-of-range indexes, and
// truncated row payloads are rejected with the documented errors.
func TestRowExchangeCanonical(t *testing.T) {
	c := Contact{ID: 3, Addr: "mem/3"}
	for _, bad := range [][]Row{
		{{Index: 5, Entry: c}, {Index: 5, Entry: c}}, // duplicate
		{{Index: 9, Entry: c}, {Index: 2, Entry: c}}, // descending
		{{Index: MaxRows, Entry: c}},                 // out of range
	} {
		if _, err := Encode(&Message{Type: TRowExchangeResp, Rows: bad}); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("encode rows %v: %v, want ErrBadMessage", bad, err)
		}
	}
	ok, err := Encode(&Message{Type: TRowExchangeResp, Rows: []Row{{Index: 1, Entry: c}, {Index: 4, Entry: c}}})
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two row indexes in place: same length, no longer ascending.
	swapped := append([]byte(nil), ok...)
	rowStart := len(swapped) - 2*(1+9+len(c.Addr))
	swapped[rowStart], swapped[rowStart+1+9+len(c.Addr)] = 4, 1
	if _, err := Decode(swapped); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("decode unordered rows: %v, want ErrBadMessage", err)
	}
	// Every strict prefix that cuts into the row list is a truncation,
	// never a short-but-valid list: the count byte pins the length.
	for cut := rowStart; cut < len(ok); cut++ {
		if _, err := Decode(ok[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("decode %d/%d-byte prefix: %v, want ErrTruncated", cut, len(ok), err)
		}
	}
	if _, err := Encode(&Message{Type: TRowExchangeResp, Rows: make([]Row, MaxRows+1)}); !errors.Is(err, ErrRowCount) {
		t.Fatal("oversized row list accepted")
	}
	if _, err := Encode(&Message{Type: TLeafProbeResp, Leaves: make([]Contact, MaxLeaves+1)}); !errors.Is(err, ErrLeafCount) {
		t.Fatal("oversized leaf set accepted")
	}
}

// Closest-contact lists have one canonical encoding: strictly ascending
// ids (which also rules out duplicates). Both directions reject
// violations, mirroring the strict-ascending row-list rule.
func TestClosestCanonical(t *testing.T) {
	c := func(i id.ID) Contact { return Contact{ID: i, Addr: "mem/x"} }
	for _, bad := range [][]Contact{
		{c(5), c(5)},        // duplicate id
		{c(9), c(2)},        // descending
		{c(1), c(7), c(7)},  // duplicate at tail
		{c(4), c(12), c(3)}, // unsorted tail
	} {
		for _, m := range []*Message{
			{Type: TFindNodeResp, Closest: bad},
			{Type: TFindValueResp, Closest: bad},
		} {
			if _, err := Encode(m); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%v: encode closest %v: %v, want ErrBadMessage", m.Type, bad, err)
			}
		}
	}
	ok, err := Encode(&Message{Type: TFindNodeResp, Closest: []Contact{c(1), c(4)}})
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two contact ids in place: same length, no longer ascending.
	swapped := append([]byte(nil), ok...)
	entry := 9 + len("mem/x")
	start := len(swapped) - 2*entry
	swapped[start+7], swapped[start+entry+7] = 4, 1
	if _, err := Decode(swapped); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("decode unordered closest list: %v, want ErrBadMessage", err)
	}
	// Every strict prefix that cuts into the list is a truncation, never
	// a short-but-valid list: the count byte pins the length.
	for cut := start; cut < len(ok); cut++ {
		if _, err := Decode(ok[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("decode %d/%d-byte prefix: %v, want ErrTruncated", cut, len(ok), err)
		}
	}
	for _, m := range []*Message{
		{Type: TFindNodeResp, Closest: make([]Contact, MaxClosest+1)},
		{Type: TFindValueResp, Closest: make([]Contact, MaxClosest+1)},
	} {
		if _, err := Encode(m); !errors.Is(err, ErrClosest) {
			t.Fatalf("%v: oversized closest list accepted", m.Type)
		}
	}
	// A done byte above 1 is rejected, as is an ok byte above 1 on the
	// value response.
	done, err := Encode(&Message{Type: TFindNodeResp, Done: true, Found: c(2)})
	if err != nil {
		t.Fatal(err)
	}
	done[2+8+9+len("")+0] = 2 // the done byte sits right after the From contact
	bad := append([]byte(nil), done...)
	if _, err := Decode(bad); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("decode done byte 2: %v, want ErrBadMessage", err)
	}
}

// Digest and need lists have one canonical encoding: strictly ascending
// keys (delta-encoded, so a zero delta or a wrapping delta is the wire
// image of a violation) with minimal uvarints. Both directions reject
// duplicates, descending order, oversized lists, non-minimal varints,
// and truncation.
func TestDigestCanonical(t *testing.T) {
	e := func(k id.ID) DigestEntry { return DigestEntry{Key: k, Version: 1, Sum: 2} }
	for _, bad := range [][]DigestEntry{
		{e(5), e(5)},       // duplicate key
		{e(9), e(2)},       // descending
		{e(1), e(7), e(3)}, // unsorted tail
	} {
		if _, err := Encode(&Message{Type: TReplicateDigest, Digest: bad}); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("encode digest %v: %v, want ErrBadMessage", bad, err)
		}
	}
	for _, bad := range [][]id.ID{
		{5, 5},
		{9, 2},
		{1, 7, 3},
	} {
		if _, err := Encode(&Message{Type: TReplicateDigestResp, Need: bad}); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("encode need %v: %v, want ErrBadMessage", bad, err)
		}
	}
	if _, err := Encode(&Message{Type: TReplicateDigest, Digest: make([]DigestEntry, MaxDigestEntries+1)}); !errors.Is(err, ErrDigest) {
		t.Fatal("oversized digest accepted")
	}
	if _, err := Encode(&Message{Type: TReplicateDigestResp, Need: make([]id.ID, MaxDigestEntries+1)}); !errors.Is(err, ErrDigest) {
		t.Fatal("oversized need list accepted")
	}

	from := Contact{ID: 1, Addr: "mem/1"}
	ok, err := Encode(&Message{Type: TReplicateDigest, From: from,
		Digest: []DigestEntry{e(10), e(20)}})
	if err != nil {
		t.Fatal(err)
	}
	// The second entry's key travels as delta 10 (one uvarint byte right
	// after entry one's fixed 8-byte sum). Zeroing it makes the decoded
	// key equal its predecessor — the wire image of a duplicate.
	dup := append([]byte(nil), ok...)
	dup[len(dup)-10] = 0 // delta(1) + version(1) + sum(8) from the end
	if _, err := Decode(dup); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("decode zero key delta: %v, want ErrBadMessage", err)
	}
	// Every strict prefix that cuts into the digest list is a truncation,
	// never a short-but-valid list: the count byte pins the length.
	listStart := 2 + 8 + 9 + len(from.Addr)
	for cut := listStart; cut < len(ok); cut++ {
		if _, err := Decode(ok[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("decode %d/%d-byte prefix: %v, want ErrTruncated", cut, len(ok), err)
		}
	}
	// A non-minimal uvarint spells the same value a second way; the
	// decoder must reject it or Encode(Decode(b)) != b. Key 10 encodes
	// minimally as 0x0a; 0x8a 0x00 decodes to the same 10.
	nm := append([]byte(nil), ok[:listStart+1]...) // through the count byte
	nm = append(nm, 0x8a, 0x00)                    // non-minimal 10
	nm = append(nm, ok[listStart+2:]...)           // rest of entry one + entry two
	if _, err := Decode(nm); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("decode non-minimal uvarint: %v, want ErrBadMessage", err)
	}
	// A delta that wraps the 64-bit key space decodes to a key below its
	// predecessor; the decoder must catch the overflow.
	wrap, err := Encode(&Message{Type: TReplicateDigestResp, From: from, Need: []id.ID{1 << 63, (1 << 63) + 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the 1-byte delta with a 10-byte maximal uvarint (2^64-1):
	// 1<<63 + 2^64-1 wraps to 1<<63 - 1 < 1<<63.
	wrap = wrap[:len(wrap)-1]
	wrap = append(wrap, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	if _, err := Decode(wrap); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("decode wrapping key delta: %v, want ErrBadMessage", err)
	}
}

func TestResponsePairing(t *testing.T) {
	pairs := map[Type]Type{
		TPing:            TPong,
		TFindSucc:        TFindSuccResp,
		TGetPred:         TGetPredResp,
		TNotify:          TNotifyAck,
		TPut:             TPutAck,
		TGet:             TGetResp,
		TRowExchange:     TRowExchangeResp,
		TLeafProbe:       TLeafProbeResp,
		TFindNode:        TFindNodeResp,
		TFindValue:       TFindValueResp,
		TReplicateDigest: TReplicateDigestResp,
	}
	for req, resp := range pairs {
		if req.IsResponse() {
			t.Errorf("%v classified as response", req)
		}
		if !resp.IsResponse() {
			t.Errorf("%v not classified as response", resp)
		}
		if got := req.Response(); got != resp {
			t.Errorf("%v.Response() = %v, want %v", req, got, resp)
		}
	}
	// Replicate is one-way: routed like a request (the read loop hands
	// it to the handler), but asking for its response is a programming
	// error the type system flags at the first misuse.
	if TReplicate.IsResponse() {
		t.Error("replicate classified as response")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("TReplicate.Response() did not panic")
			}
		}()
		TReplicate.Response()
	}()
}

// MaxMessageLen is the size of the largest encodable message, a full
// row-exchange response with maximal addresses; read buffers are sized
// by it.
func TestMaxMessageLen(t *testing.T) {
	addr := strings.Repeat("a", MaxAddrLen)
	m := &Message{Type: TRowExchangeResp, MsgID: 1, From: Contact{ID: 1, Addr: addr}}
	for i := 0; i < MaxRows; i++ {
		m.Rows = append(m.Rows, Row{Index: uint8(i), Entry: Contact{ID: id.ID(i), Addr: addr}})
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != MaxMessageLen {
		t.Fatalf("largest row-exchange response encodes to %d bytes, MaxMessageLen is %d", len(b), MaxMessageLen)
	}
	// No other payload is longer.
	others := []*Message{
		{Type: TGetPredResp, HasPred: true, Pred: Contact{ID: 2, Addr: addr}, Succs: make([]Contact, MaxSuccs)},
		{Type: TLeafProbeResp, Leaves: make([]Contact, MaxLeaves)},
		{Type: TFindNodeResp, Done: true, Found: Contact{ID: 2, Addr: addr}, Closest: make([]Contact, MaxClosest)},
		{Type: TGetResp, OK: true, Value: make([]byte, MaxValueLen)},
		{Type: TReplicate, Value: make([]byte, MaxValueLen)},
		{Type: TReplicateDigest, Digest: make([]DigestEntry, MaxDigestEntries)},
	}
	for _, o := range others {
		o.From = Contact{ID: 1, Addr: addr}
		for i := range o.Succs {
			o.Succs[i] = Contact{ID: id.ID(i + 1), Addr: addr}
		}
		for i := range o.Leaves {
			o.Leaves[i] = Contact{ID: id.ID(i + 1), Addr: addr}
		}
		for i := range o.Closest {
			o.Closest[i] = Contact{ID: id.ID(i + 1), Addr: addr}
		}
		for i := range o.Digest {
			o.Digest[i] = DigestEntry{Key: id.ID(uint64(i+1) << 56), Version: 1<<64 - 1, Sum: 1}
		}
		b, err := Encode(o)
		if err != nil {
			t.Fatalf("%v: %v", o.Type, err)
		}
		if len(b) > MaxMessageLen {
			t.Fatalf("%v encodes to %d bytes, above MaxMessageLen %d", o.Type, len(b), MaxMessageLen)
		}
	}
}
