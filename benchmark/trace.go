package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"peercache/internal/chunk"
	"peercache/internal/id"
	"peercache/internal/node"
	"peercache/internal/wire"
)

// The traced run records spans from outside the program only: around
// the public client calls (Lookup, Get, Put, FindValue, a chunk read)
// and at the PacketConn every node sends and receives through. A
// request datagram leaving an origin node while a client op for the
// same key is in flight there becomes that op's child node.rpc span;
// the response datagram carrying the same MsgID back ends it.

type spanName uint8

const (
	spanLookup spanName = iota
	spanGet
	spanPut
	spanFindValue
	spanChunkRead
	spanRPC
)

var spanNames = [...]string{"node.lookup", "node.get", "node.put", "node.find_value", "chunk.read", "node.rpc"}

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; end is -1 for an RPC whose response never arrived.
type span struct {
	id, parent uint64
	name       spanName
	node       int
	key        id.ID
	start, end int64
}

// sampleEvery is the datagram capture stride for the codec replay.
const sampleEvery = 64

// tracer owns the spans of one traced overlay. A nil *tracer is an
// untraced run: begin returns nil and end and readStats ignore it.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool // off: wrapped conns pass through, begin records nothing
	nextID atomic.Uint64
	conns  [overlayNodes]*tracedConn

	mu    sync.Mutex
	spans []span        // finished client-op spans
	reads []chunk.Stats // one per finished stream read
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// wrap returns conn instrumented as node i's endpoint.
func (t *tracer) wrap(i int, conn node.PacketConn) node.PacketConn {
	t.conns[i] = &tracedConn{PacketConn: conn, t: t, pending: make(map[uint64]int)}
	return t.conns[i]
}

// wrapped lists the conns wrap has instrumented.
func (t *tracer) wrapped() []*tracedConn {
	var out []*tracedConn
	for _, c := range t.conns {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// begin opens a client-op span at the origin node and makes it the
// candidate parent of request datagrams for key leaving that node.
func (t *tracer) begin(name spanName, origin int, key id.ID, parent uint64) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	sp := &span{id: t.nextID.Add(1), parent: parent, name: name, node: origin, key: key, start: t.now()}
	if name != spanChunkRead { // a read sends nothing itself; its find_value children do
		c := t.conns[origin]
		c.mu.Lock()
		c.active = append(c.active, sp)
		c.mu.Unlock()
	}
	return sp
}

func (t *tracer) end(sp *span) {
	if sp == nil {
		return
	}
	sp.end = t.now()
	if sp.name != spanChunkRead {
		c := t.conns[sp.node]
		c.mu.Lock()
		for i, a := range c.active {
			if a == sp {
				c.active = append(c.active[:i], c.active[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
	}
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

func (t *tracer) readStats(s chunk.Stats) {
	if t == nil || !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.reads = append(t.reads, s)
	t.mu.Unlock()
}

// kvTrace is the chunk.KV wrapper of one traced stream read: every Get
// is a node.find_value span whose parent is the read's chunk.read span.
type kvTrace struct {
	inner  chunk.KV
	tr     *tracer
	node   int
	parent uint64
}

func (k *kvTrace) Put(key id.ID, value []byte) error { return k.inner.Put(key, value) }

func (k *kvTrace) Get(key id.ID) ([]byte, int, error) {
	sp := k.tr.begin(spanFindValue, k.node, key, k.parent)
	defer k.tr.end(sp)
	return k.inner.Get(key)
}

// envelope is the fixed head of every wire datagram, plus the key a
// routed request carries right after it.
type envelope struct {
	typ    wire.Type
	msgID  uint64
	key    id.ID
	hasKey bool
}

// parseEnvelope reads the wire envelope (version, type, MsgID, sender
// contact) without decoding the payload; TestParseEnvelopeMatchesWire
// holds it to wire.Encode's layout.
func parseEnvelope(b []byte) (envelope, bool) {
	// version(1) type(1) msgid(8) from.id(8) from.addrlen(1) from.addr
	if len(b) < 19 || b[0] != wire.Version {
		return envelope{}, false
	}
	e := envelope{typ: wire.Type(b[1]), msgID: binary.BigEndian.Uint64(b[2:])}
	rest := b[19:]
	if addrLen := int(b[18]); len(rest) >= addrLen {
		rest = rest[addrLen:]
	} else {
		return envelope{}, false
	}
	switch e.typ {
	case wire.TFindSucc, wire.TFindNode, wire.TFindValue, wire.TGet, wire.TPut:
		if len(rest) < 8 {
			return envelope{}, false
		}
		e.key, e.hasKey = id.ID(binary.BigEndian.Uint64(rest)), true
	}
	return e, true
}

// tracedConn wraps one node's endpoint. While the tracer is off it
// adds one atomic load to each call.
type tracedConn struct {
	node.PacketConn
	t *tracer

	writes, writeNs atomic.Uint64
	typeCount       [32]atomic.Uint64 // datagrams written, by wire type

	mu      sync.Mutex
	active  []*span        // client ops in flight at this origin
	pending map[uint64]int // request MsgID → index into rpcs
	rpcs    []span
	sampled [][]byte // every sampleEvery-th datagram written
}

func (c *tracedConn) WriteTo(p []byte, addr string) (int, error) {
	if !c.t.on.Load() {
		return c.PacketConn.WriteTo(p, addr)
	}
	seq := c.writes.Add(1)
	e, ok := parseEnvelope(p)
	if ok {
		c.typeCount[e.typ%32].Add(1)
	}
	if seq%sampleEvery == 0 || (ok && e.hasKey) {
		c.mu.Lock()
		if seq%sampleEvery == 0 {
			c.sampled = append(c.sampled, append([]byte(nil), p...))
		}
		if ok && e.hasKey {
			// Register before the write: over memnet the response can
			// reach ReadFrom before WriteTo returns.
			for _, a := range c.active {
				if a.key == e.key {
					c.pending[e.msgID] = len(c.rpcs)
					c.rpcs = append(c.rpcs, span{id: c.t.nextID.Add(1), parent: a.id, name: spanRPC,
						node: a.node, key: e.key, start: c.t.now(), end: -1})
					break
				}
			}
		}
		c.mu.Unlock()
	}
	start := time.Now()
	n, err := c.PacketConn.WriteTo(p, addr)
	c.writeNs.Add(uint64(time.Since(start).Nanoseconds()))
	return n, err
}

func (c *tracedConn) ReadFrom(p []byte) (int, string, error) {
	n, from, err := c.PacketConn.ReadFrom(p)
	if err != nil || !c.t.on.Load() {
		return n, from, err
	}
	if e, ok := parseEnvelope(p[:n]); ok && e.typ.IsResponse() {
		c.mu.Lock()
		if i, ok := c.pending[e.msgID]; ok {
			c.rpcs[i].end = c.t.now()
			delete(c.pending, e.msgID)
		}
		c.mu.Unlock()
	}
	return n, from, err
}

// traceSummary is what the spans and datagram counts of a traced run
// reduce to.
type traceSummary struct {
	opP50us     map[spanName]float64 // span p50 by name
	rpcP50us    float64
	rpcP99us    float64
	opSelfP50us float64 // node.* op span minus the union of its RPC children
	rpcsPerOp   float64
	wastedShare float64 // RPC children answered after their op ended, or never
	chunkSelfUs float64 // chunk.read span minus the union of its find_value children
	waitShare   float64 // Reader wait time / read span time
	waitChunks  float64 // chunks the reader blocked on / chunks read
	writeNs     float64 // mean WriteTo duration
	typeShare   [4]float64
	replayDecNs float64
	replayEncNs float64
	meanBytes   float64
	spanCount   int
}

const (
	shareLookup = iota
	shareMaint
	shareData
	shareRepl
)

// typeClass sorts a wire type into the four traffic classes the
// wire.share_* metrics report.
func typeClass(t wire.Type) int {
	switch t {
	case wire.TFindSucc, wire.TFindSuccResp, wire.TFindNode, wire.TFindNodeResp:
		return shareLookup
	case wire.TPut, wire.TPutAck, wire.TGet, wire.TGetResp, wire.TFindValue, wire.TFindValueResp:
		return shareData
	case wire.TReplicate, wire.TReplicateDigest, wire.TReplicateDigestResp:
		return shareRepl
	}
	return shareMaint
}

// summarize reduces the recorded spans. Call it after the overlay has
// closed, so no conn is still appending.
func (t *tracer) summarize() traceSummary {
	s := traceSummary{opP50us: make(map[spanName]float64)}
	children := make(map[uint64][]span) // parent id → child spans
	var rpcUs []float64
	var rpcs int
	var writes, writeNs uint64
	var typeCount [4]uint64
	var sampled [][]byte
	for _, c := range t.wrapped() {
		for _, r := range c.rpcs {
			children[r.parent] = append(children[r.parent], r)
			if r.end >= 0 {
				rpcUs = append(rpcUs, float64(r.end-r.start)/1e3)
			}
		}
		rpcs += len(c.rpcs)
		writes += c.writes.Load()
		writeNs += c.writeNs.Load()
		for typ := range c.typeCount {
			typeCount[typeClass(wire.Type(typ))] += c.typeCount[typ].Load()
		}
		sampled = append(sampled, c.sampled...)
	}
	for _, sp := range t.spans {
		if sp.parent != 0 {
			children[sp.parent] = append(children[sp.parent], sp)
		}
	}
	byName := make(map[spanName][]float64)
	var opSelf, chunkSelf []float64
	var ops, wasted int
	for _, sp := range t.spans {
		byName[sp.name] = append(byName[sp.name], float64(sp.end-sp.start)/1e3)
		var kids []interval
		for _, c := range children[sp.id] {
			end := c.end
			if c.name == spanRPC && (end < 0 || end > sp.end) {
				wasted++
				end = sp.end
			}
			kids = append(kids, interval{c.start, end})
		}
		self := float64(selfTime(interval{sp.start, sp.end}, kids)) / 1e3
		if sp.name == spanChunkRead {
			chunkSelf = append(chunkSelf, self)
		} else {
			opSelf = append(opSelf, self)
			ops++
		}
	}
	for name, xs := range byName {
		s.opP50us[name] = median(xs)
	}
	sort.Float64s(rpcUs)
	s.rpcP50us = median(rpcUs)
	s.rpcP99us = percentile(rpcUs, supportedPercentile(len(rpcUs), 99))
	s.opSelfP50us = median(opSelf)
	s.chunkSelfUs = median(chunkSelf)
	if ops > 0 {
		s.rpcsPerOp = float64(rpcs) / float64(ops)
	}
	if rpcs > 0 {
		s.wastedShare = float64(wasted) / float64(rpcs)
	}
	var wait, chunks, waited float64
	for _, r := range t.reads {
		wait += r.WaitTime.Seconds()
		chunks += float64(r.Chunks)
		waited += float64(r.WaitChunks)
	}
	if total := sum(byName[spanChunkRead]) / 1e6; total > 0 {
		s.waitShare = wait / total
	}
	if chunks > 0 {
		s.waitChunks = waited / chunks
	}
	if writes > 0 {
		s.writeNs = float64(writeNs) / float64(writes)
		for i, n := range typeCount {
			s.typeShare[i] = float64(n) / float64(writes)
		}
	}
	s.replayDecNs, s.replayEncNs, s.meanBytes = replay(sampled)
	s.spanCount = len(t.spans) + rpcs
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// replay runs the captured datagrams back through the codec and
// returns the mean decode and encode time per datagram and their mean
// size.
func replay(datagrams [][]byte) (decNs, encNs, meanBytes float64) {
	if len(datagrams) == 0 {
		return 0, 0, 0
	}
	msgs := make([]*wire.Message, 0, len(datagrams))
	var bytes int
	start := time.Now()
	for _, d := range datagrams {
		bytes += len(d)
		if m, err := wire.Decode(d); err == nil {
			msgs = append(msgs, m)
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / float64(len(datagrams))
	if len(msgs) == 0 {
		return decNs, 0, float64(bytes) / float64(len(datagrams))
	}
	buf := make([]byte, 0, 8192)
	start = time.Now()
	for _, m := range msgs {
		buf, _ = wire.AppendEncode(buf[:0], m) // re-encoding a decoded message cannot fail
	}
	encNs = float64(time.Since(start).Nanoseconds()) / float64(len(msgs))
	return decNs, encNs, float64(bytes) / float64(len(datagrams))
}

// writeSpans writes every span as one CSV line into dir.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,parent,name,node,key,start_ns,end_ns")
	line := func(sp span) {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", sp.id, sp.parent, spanNames[sp.name], sp.node, sp.key, sp.start, sp.end)
	}
	for _, sp := range t.spans {
		line(sp)
	}
	for _, c := range t.wrapped() {
		for _, sp := range c.rpcs {
			line(sp)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
