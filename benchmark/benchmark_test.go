package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"testing"

	"peercache/internal/id"
	"peercache/internal/randx"
	"peercache/internal/wire"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {5, 0}, {10, 0}, {20, 50}, {400, 97.5}, {999, 100 * (1 - 10.0/999)}, {1000, 99}, {100000, 99},
	} {
		if got := supportedPercentile(c.n, 99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("supportedPercentile(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
	// The reported value has at least minBeyond samples above it.
	sorted := make([]float64, 400)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	v := percentile(sorted, supportedPercentile(len(sorted), 99))
	if beyond := len(sorted) - 1 - int(v); beyond < minBeyond {
		t.Errorf("percentile %v leaves %d samples beyond it, want at least %d", v, beyond, minBeyond)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqr([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 5.5 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
}

// Counts reduce to the median over all windows. Rates and latencies
// reduce to the median over the overlays of each overlay's best window,
// so a window slowed from outside does not move them.
func TestWindowReductions(t *testing.T) {
	var m measured
	m.add([]window{{n: 10, opsS: 100, p50us: 20, meanHops: 1.5}, {n: 10, opsS: 30, p50us: 90, meanHops: 1.4, failed: 1, errored: 1}})
	m.add([]window{{n: 10, opsS: 80, p50us: 25, meanHops: 1.1}, {n: 10, opsS: 120, p50us: 18, meanHops: 1.2}})
	m.add([]window{{n: 10, opsS: 5, p50us: 400, meanHops: 1.3}, {n: 10, opsS: 110, p50us: 19, meanHops: 1.6}})
	if got := m.best(true, func(w window) float64 { return w.opsS }); got != 110 {
		t.Errorf("best ops_s = %v, want 110 (the median of 100, 120, 110)", got)
	}
	if got := m.best(false, func(w window) float64 { return w.p50us }); got != 19 {
		t.Errorf("best p50 = %v, want 19 (the median of 20, 18, 19)", got)
	}
	if got := m.col(func(w window) float64 { return w.meanHops }); got != 1.35 {
		t.Errorf("median hops = %v, want 1.35", got)
	}
	if m.attempted != 60 || m.failed != 1 || m.errored != 1 {
		t.Errorf("attempted, failed, errored = %d, %d, %d", m.attempted, m.failed, m.errored)
	}
	if ops, spread := m.opsSpread(); len(ops) != 6 || spread != (120-5)/90.0 {
		t.Errorf("window ops %v, spread %v", ops, spread)
	}
}

func TestSelfTimeIsIntervalUnionSubtraction(t *testing.T) {
	span := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to the span", []interval{{50, 120}, {180, 400}}, 60},
		{"outside the span", []interval{{0, 50}, {300, 400}}, 100},
		{"covering", []interval{{0, 400}}, 0},
	} {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// fakeConn is a PacketConn whose reads come from a channel.
type fakeConn struct {
	in      chan []byte
	written int
}

func (f *fakeConn) ReadFrom(p []byte) (int, string, error) {
	d, ok := <-f.in
	if !ok {
		return 0, "", net.ErrClosed
	}
	return copy(p, d), "mem/peer", nil
}
func (f *fakeConn) WriteTo(p []byte, addr string) (int, error) { f.written++; return len(p), nil }
func (f *fakeConn) LocalAddr() string                          { return "mem/self" }
func (f *fakeConn) Close() error                               { close(f.in); return nil }

func encode(t *testing.T, m *wire.Message) []byte {
	t.Helper()
	b, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRequestResponsePairing(t *testing.T) {
	tr := newTracer()
	fake := &fakeConn{in: make(chan []byte, 4)}
	conn := tr.wrap(0, fake)
	tr.on.Store(true)
	from := wire.Contact{ID: 7, Addr: "mem/7"}
	const key = id.ID(4242)

	op := tr.begin(spanLookup, 0, key, 0)
	// Answered: request out, response with the same MsgID in.
	conn.WriteTo(encode(t, &wire.Message{Type: wire.TFindSucc, MsgID: 1, From: from, Target: key}), "mem/peer")
	// Never answered.
	conn.WriteTo(encode(t, &wire.Message{Type: wire.TFindSucc, MsgID: 2, From: from, Target: key}), "mem/peer")
	// Another key (a finger refresh, say): not this op's child.
	conn.WriteTo(encode(t, &wire.Message{Type: wire.TFindSucc, MsgID: 3, From: from, Target: key + 1}), "mem/peer")
	// A keyless maintenance request: not a child either.
	conn.WriteTo(encode(t, &wire.Message{Type: wire.TPing, MsgID: 4, From: from}), "mem/peer")
	fake.in <- encode(t, &wire.Message{Type: wire.TFindSuccResp, MsgID: 1, From: from, Done: true, Found: from})
	fake.in <- encode(t, &wire.Message{Type: wire.TFindSuccResp, MsgID: 99, From: from, Done: true, Found: from}) // no such request
	buf := make([]byte, 4096)
	for i := 0; i < 2; i++ {
		if _, _, err := conn.ReadFrom(buf); err != nil {
			t.Fatal(err)
		}
	}
	tr.end(op)
	// After the op ended, requests for its key are nobody's children.
	conn.WriteTo(encode(t, &wire.Message{Type: wire.TFindSucc, MsgID: 5, From: from, Target: key}), "mem/peer")

	if fake.written != 5 {
		t.Fatalf("inner conn saw %d writes, want 5", fake.written)
	}
	rpcs := tr.conns[0].rpcs
	if len(rpcs) != 2 {
		t.Fatalf("%d rpc spans, want 2: %+v", len(rpcs), rpcs)
	}
	for _, r := range rpcs {
		if r.parent != op.id || r.name != spanRPC || r.key != key {
			t.Errorf("rpc span %+v is not a child of op %d", r, op.id)
		}
	}
	if rpcs[0].end < rpcs[0].start {
		t.Errorf("answered rpc has end %d before start %d", rpcs[0].end, rpcs[0].start)
	}
	if rpcs[1].end != -1 {
		t.Errorf("unanswered rpc has end %d, want -1", rpcs[1].end)
	}
	sum := tr.summarize()
	if sum.rpcsPerOp != 2 || sum.wastedShare != 0.5 {
		t.Errorf("rpcs per op %v, wasted share %v; want 2 and 0.5", sum.rpcsPerOp, sum.wastedShare)
	}
	if sum.typeShare[shareLookup] != 0.8 || sum.typeShare[shareMaint] != 0.2 {
		t.Errorf("type shares %v, want 0.8 lookup and 0.2 maintenance", sum.typeShare)
	}
}

// parseEnvelope reads the wire layout by hand; hold it to the codec.
func TestParseEnvelopeMatchesWire(t *testing.T) {
	from := wire.Contact{ID: 65000, Addr: "mem/65000"}
	keyed := map[wire.Type]*wire.Message{
		wire.TFindSucc:  {Type: wire.TFindSucc, Target: 31337},
		wire.TFindNode:  {Type: wire.TFindNode, Target: 31337},
		wire.TFindValue: {Type: wire.TFindValue, Key: 31337},
		wire.TGet:       {Type: wire.TGet, Key: 31337},
		wire.TPut:       {Type: wire.TPut, Key: 31337, Value: []byte("v")},
	}
	for typ, m := range keyed {
		m.MsgID, m.From = 0xDEADBEEF, from
		e, ok := parseEnvelope(encode(t, m))
		if !ok || e.typ != typ || e.msgID != m.MsgID || !e.hasKey || e.key != 31337 {
			t.Errorf("%v: parsed %+v, ok=%t", typ, e, ok)
		}
	}
	for _, m := range []*wire.Message{
		{Type: wire.TPing}, {Type: wire.TGetPred}, {Type: wire.TLeafProbe},
		{Type: wire.TFindSuccResp, Done: true, Found: from},
		{Type: wire.TGetResp, OK: true, Value: []byte("v"), Version: 1},
	} {
		m.MsgID, m.From = 12345, from
		e, ok := parseEnvelope(encode(t, m))
		if !ok || e.typ != m.Type || e.msgID != 12345 || e.hasKey {
			t.Errorf("%v: parsed %+v, ok=%t", m.Type, e, ok)
		}
	}
	for _, bad := range [][]byte{nil, {wire.Version}, make([]byte, 19), encode(t, keyed[wire.TGet])[:25]} {
		if e, ok := parseEnvelope(bad); ok {
			t.Errorf("parseEnvelope(%x) = %+v, want a refusal", bad, e)
		}
	}
}

func TestDrawRootsRedrawsCollisions(t *testing.T) {
	// Nine keys an object in a 64-key space: derived keys collide
	// often, both within an object and between objects.
	space := id.NewSpace(6)
	const objects, chunks = 4, 8
	for seed := int64(1); seed <= 50; seed++ {
		roots := drawRoots(randx.New(seed), space, objects, chunks)
		if len(roots) != objects {
			t.Fatalf("seed %d: %d roots, want %d", seed, len(roots), objects)
		}
		seen := make(map[id.ID]bool)
		for _, root := range roots {
			for _, k := range objectKeys(space, root, chunks) {
				if seen[k] {
					t.Fatalf("seed %d: key %d occurs twice", seed, k)
				}
				seen[k] = true
			}
		}
	}
	// Without the re-draw the same draws do collide, so the loop above
	// exercised it.
	collided := false
	for seed := int64(1); seed <= 50 && !collided; seed++ {
		rng := randx.New(seed)
		seen := make(map[id.ID]bool)
		for i := 0; i < objects; i++ {
			for _, k := range objectKeys(space, id.ID(rng.Uint64()%space.Size()), chunks) {
				collided = collided || seen[k]
				seen[k] = true
			}
		}
	}
	if !collided {
		t.Error("no seed produced a collision; the space is too large to test the re-draw")
	}
}

func TestSeedDeterminesInputsAndOps(t *testing.T) {
	sequence := func(w *workload, seed int64) []op {
		in := genInputs(w, seed, 1)
		src := newOpSource(w, in, seed, 1, "measure", 0)
		ops := make([]op, 1000)
		for i := range ops {
			ops[i] = src.next()
		}
		return ops
	}
	for _, w := range workloads {
		a, b := genInputs(w, 42, 1), genInputs(w, 42, 1)
		if !reflect.DeepEqual(a.ids, b.ids) || !reflect.DeepEqual(a.keys, b.keys) ||
			!reflect.DeepEqual(a.owners, b.owners) || !reflect.DeepEqual(a.objects, b.objects) {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if c := genInputs(w, 43, 1); reflect.DeepEqual(a.ids, c.ids) {
			t.Errorf("%s: another seed generated the same node ids", w.name)
		}
		if d := genInputs(w, 42, 2); reflect.DeepEqual(a.ids, d.ids) {
			t.Errorf("%s: another round generated the same node ids", w.name)
		}
		if !reflect.DeepEqual(sequence(w, 42), sequence(w, 42)) {
			t.Errorf("%s: the same seed generated different op sequences", w.name)
		}
		if reflect.DeepEqual(sequence(w, 42), sequence(w, 43)) {
			t.Errorf("%s: another seed generated the same op sequence", w.name)
		}
	}
	var puts int
	for _, o := range sequence(workloadByName("pastry_kv_mixed"), 7) {
		if o.kind == opPut {
			puts++
		}
	}
	if puts < 150 || puts > 250 {
		t.Errorf("%d puts in 1000 kv ops, want about 200", puts)
	}
}

func TestOwnerPastryTieConvention(t *testing.T) {
	sorted := []id.ID{10, 20, 65000}
	for _, c := range []struct{ key, want id.ID }{
		{12, 10}, {18, 20}, {20, 20},
		{15, 10},       // equidistant: the predecessor side wins
		{65200, 65000}, // 200 from 65000, 346 from 10 around the wrap
		{65530, 10},    // 16 from 10 around the wrap
		{3, 10},
		{65273, 65000}, // equidistant (273) across the wrap: 65000 precedes the key
	} {
		if got := ownerPastry(sorted, c.key); got != c.want {
			t.Errorf("ownerPastry(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	body := make([]byte, valueLen)
	randx.New(1).Read(body)
	v := make([]byte, valueLen)
	fillValue(v, body, 777, 5)
	if !checkValue(v, 777) {
		t.Fatal("an intact value failed its check")
	}
	if checkValue(v, 778) {
		t.Error("a value written for another key passed")
	}
	v[500] ^= 1
	if checkValue(v, 777) {
		t.Error("a corrupted value passed")
	}
	if checkValue(v[:100], 777) {
		t.Error("a truncated value passed")
	}
}

// BENCHMARK.json and the program must name the same workloads; metric
// names are checked against it by every run (matchSpec).
func TestSpecNamesTheWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range sp.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json names workloads %v, the program runs %v", got, want)
	}
	ms := map[string]metric{"a": {1, "us"}, "b": {2, "count"}}
	if err := matchSpec(ms, []metricSpec{{Name: "a", Unit: "us"}, {Name: "b", Unit: "count"}}); err != nil {
		t.Errorf("matching metrics refused: %v", err)
	}
	for _, bad := range [][]metricSpec{
		{{Name: "a", Unit: "us"}},
		{{Name: "a", Unit: "us"}, {Name: "b", Unit: "count"}, {Name: "c", Unit: "s"}},
		{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}},
	} {
		if err := matchSpec(ms, bad); err == nil {
			t.Errorf("matchSpec accepted %v against %v", fmt.Sprint(ms), bad)
		}
	}
}
