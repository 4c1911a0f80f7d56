package main

import (
	"fmt"
	"runtime"
	"time"

	"peercache/internal/chunk"
	"peercache/internal/core"
	"peercache/internal/freq"
	"peercache/internal/id"
	"peercache/internal/itemcache"
	"peercache/internal/memnet"
	"peercache/internal/node"
	"peercache/internal/randx"
	"peercache/internal/wire"
)

// Layer probes: each calls one layer's public functions from a single
// goroutine, a fixed number of times, and reports the median of
// probeRepeats repeats. Iteration counts are sized for a few tens of
// milliseconds per repeat on the reference box, so the whole suite
// fits beside a traced run.
const probeRepeats = 5

// perCall is the median over probeRepeats of the nanoseconds
// fn(iters) takes, divided by iters.
func perCall(iters int, fn func(iters int)) float64 {
	xs := make([]float64, probeRepeats)
	for r := range xs {
		start := time.Now()
		fn(iters)
		xs[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(xs)
}

// allocsPerCall is the number of heap allocations, process-wide, per
// call of fn.
func allocsPerCall(iters int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// stepped is a node.Scheduler that runs maintenance only when the
// probe says so: step runs every registered job once. Between steps
// the probe nodes do only what the probe calls.
type stepped struct{ jobs []func() }

type steppedJob struct{}

func (s *stepped) Every(_ time.Duration, fn func()) node.JobHandle {
	s.jobs = append(s.jobs, fn)
	return steppedJob{}
}
func (steppedJob) Cancel() {}
func (steppedJob) Wait()   {}

func (s *stepped) step() {
	for _, fn := range s.jobs {
		fn()
	}
}

func probeContact(x uint64) wire.Contact {
	return wire.Contact{ID: id.ID(x), Addr: fmt.Sprintf("mem/%d", x)}
}

// runLayerProbes returns every probe metric by name.
func runLayerProbes() (map[string]metric, error) {
	out := make(map[string]metric)
	ns := func(name string, perCallNs float64) { out[name] = metric{perCallNs, "ns"} }
	us := func(name string, perCallNs float64) { out[name] = metric{perCallNs / 1e3, "us"} }

	probeWire(out, ns)
	if err := probeMemnet(ns); err != nil {
		return nil, err
	}
	if err := probeNode(out, ns, us); err != nil {
		return nil, err
	}
	if err := probeCore(us); err != nil {
		return nil, err
	}

	// freq: one Observe into the rotating window, ids drawn Zipf.
	rng := randx.New(1)
	zipf := randx.NewAlias(randx.ZipfWeights(keyUniverse, zipfAlpha))
	ids := make([]id.ID, 4096)
	for i := range ids {
		ids[i] = id.ID(zipf.Sample(rng))
	}
	win := freq.NewWindowed(4)
	ns("freq.observe_ns", perCall(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			win.Observe(ids[i%len(ids)])
		}
	}))

	// itemcache: the shipped ShardedTTL, full, on resident keys.
	now := time.Now()
	cache := itemcache.NewShardedTTL[uint64](256, time.Hour, 16, idBits)
	resident := make([]id.ID, 256)
	for i := range resident {
		resident[i] = id.ID(uint64(i) << 8) // spread over all 16 prefix shards
		cache.Put(resident[i], uint64(i), now)
	}
	ns("itemcache.get_ns", perCall(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			cache.Get(resident[i%len(resident)], now)
		}
	}))
	ns("itemcache.put_ns", perCall(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			cache.Put(resident[i%len(resident)], uint64(i), now)
		}
	}))

	// chunk: split + digest of a 1 MiB object, and a 256-chunk manifest.
	object := make([]byte, 1<<20)
	rng.Read(object)
	m := &chunk.Manifest{TotalLen: uint64(len(object)), ChunkSize: chunk.DefaultChunkSize}
	per := perCall(16, func(n int) {
		for i := 0; i < n; i++ {
			m.Digests = m.Digests[:0]
			for _, c := range chunk.Split(object, chunk.DefaultChunkSize) {
				m.Digests = append(m.Digests, chunk.Digest(c))
			}
		}
	})
	out["chunk.split_digest_mb_s"] = metric{float64(len(object)) / 1e6 / (per / 1e9), "MB/s"}
	enc, err := m.Encode()
	if err != nil {
		return nil, err
	}
	us("chunk.manifest_decode_us", perCall(1<<13, func(n int) {
		for i := 0; i < n; i++ {
			chunk.DecodeManifest(enc)
		}
	}))
	return out, nil
}

func probeWire(out map[string]metric, ns func(string, float64)) {
	value := make([]byte, wire.MaxValueLen)
	digest := make([]wire.DigestEntry, wire.MaxDigestEntries)
	for i := range digest {
		digest[i] = wire.DigestEntry{Key: id.ID(i * 400), Version: uint64(i%7 + 1), Sum: uint64(i) * 0x9E3779B97F4A7C15}
	}
	msgs := []struct {
		name  string
		iters int
		m     *wire.Message
	}{
		// A find-node response with three contacts: sender, found, one closest.
		{"small", 1 << 16, &wire.Message{Type: wire.TFindNodeResp, MsgID: 7, From: probeContact(1000),
			Done: true, Found: probeContact(2000), Closest: []wire.Contact{probeContact(3000)}}},
		{"value4k", 1 << 13, &wire.Message{Type: wire.TFindValueResp, MsgID: 7, From: probeContact(1000),
			OK: true, Value: value, Version: 3}},
		{"digest128", 1 << 12, &wire.Message{Type: wire.TReplicateDigest, MsgID: 7, From: probeContact(1000), Digest: digest}},
	}
	buf := make([]byte, 0, 8192)
	for _, c := range msgs {
		enc, err := wire.Encode(c.m)
		if err != nil {
			panic(err) // the probe messages are within the codec limits
		}
		ns("wire.encode_"+c.name+"_ns", perCall(c.iters, func(n int) {
			for i := 0; i < n; i++ {
				buf, _ = wire.AppendEncode(buf[:0], c.m)
			}
		}))
		ns("wire.decode_"+c.name+"_ns", perCall(c.iters, func(n int) {
			for i := 0; i < n; i++ {
				wire.Decode(enc)
			}
		}))
		if c.name != "digest128" {
			out["wire.allocs_"+c.name] = metric{allocsPerCall(4096, func() {
				buf, _ = wire.AppendEncode(buf[:0], c.m)
				wire.Decode(enc)
			}), "count"}
		}
	}
}

// probeMemnet times WriteTo → peer ReadFrom in batches that fit the
// receiver's queue; a lossy link reads back only what was delivered.
func probeMemnet(ns func(string, float64)) error {
	const batch = 256
	cases := []struct {
		name        string
		size, iters int
		pol         memnet.LinkPolicy
	}{
		{"memnet.deliver_small_ns", 64, 1 << 16, memnet.LinkPolicy{}},
		{"memnet.deliver_4k_ns", 4200, 1 << 14, memnet.LinkPolicy{}},
		{"memnet.deliver_lossy_ns", 64, 1 << 16, memnet.LinkPolicy{Drop: lossyDrop}},
	}
	for _, c := range cases {
		nw := memnet.New(1)
		nw.SetDefaultPolicy(c.pol)
		a, err := nw.Listen("mem/a")
		if err != nil {
			return err
		}
		b, err := nw.Listen("mem/b")
		if err != nil {
			return err
		}
		out := make([]byte, c.size)
		in := make([]byte, 8192)
		ns(c.name, perCall(c.iters, func(n int) {
			for done := 0; done < n; done += batch {
				before := nw.Stats().Delivered
				for i := 0; i < batch; i++ {
					a.WriteTo(out, "mem/b")
				}
				for k := nw.Stats().Delivered - before; k > 0; k-- {
					b.ReadFrom(in)
				}
			}
		}))
		nw.CloseAll()
	}
	return nil
}

// probeNode measures the node runtime on rings of one and two nodes
// with maintenance parked.
func probeNode(out map[string]metric, ns, us func(string, float64)) error {
	space := id.NewSpace(idBits)
	nw := memnet.New(1)
	defer nw.CloseAll()
	var sched stepped
	start := func(x uint64) (*node.Node, error) {
		return node.Start(node.Config{
			Space: space, ID: id.ID(x), Addr: fmt.Sprintf("mem/%d", x),
			RPCTimeout: rpcTimeout, RPCRetries: rpcRetries, ItemCacheCapacity: -1,
			ReplicateEvery: -1, Scheduler: &sched,
			Listen: func(addr string) (node.PacketConn, error) { return nw.Listen(addr) },
		})
	}

	// A ring of one: Put and Get are the local store path.
	solo, err := start(500)
	if err != nil {
		return err
	}
	value := make([]byte, valueLen)
	keys := make([]id.ID, 1024)
	for i := range keys {
		keys[i] = id.ID(i * 64)
	}
	var opErr error
	ns("node.store_put_1k_ns", perCall(1<<15, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := solo.Put(keys[i%len(keys)], value); err != nil {
				opErr = err
			}
		}
	}))
	ns("node.store_get_1k_ns", perCall(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := solo.Get(keys[i%len(keys)]); err != nil {
				opErr = err
			}
		}
	}))
	solo.Close()
	if opErr != nil {
		return fmt.Errorf("node store probe: %w", opErr)
	}

	// A ring of two. a owns (100, 40000], where every probe key lies.
	a, err := start(40000)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := start(100)
	if err != nil {
		return err
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		return err
	}
	for i := 0; i < 4; i++ { // stabilize until each knows the other
		sched.step()
	}
	if a.Successor().ID != b.ID() || b.Successor().ID != a.ID() {
		return fmt.Errorf("node probe: the two-node ring did not close")
	}
	us("node.rpc_rtt_us", perCall(1<<13, func(n int) {
		for i := 0; i < n; i++ {
			if err := a.Ping(b.Addr()); err != nil {
				opErr = err
			}
		}
	}))
	out["node.rpc_allocs"] = metric{allocsPerCall(2048, func() { a.Ping(b.Addr()) }), "count"}
	if opErr != nil {
		return fmt.Errorf("node rpc probe: %w", opErr)
	}

	const items = 512
	for i := 0; i < items; i++ {
		if _, err := a.Put(id.ID(200+i*64), value); err != nil {
			return fmt.Errorf("node repl probe: %w", err)
		}
	}
	// The first rounds learn b as the target and ship every item; from
	// then on a round is the steady state, one digest exchange.
	for i := 0; i < 3; i++ {
		a.ReplicationRound()
	}
	if got := b.Metrics().ItemsReplica; got != items {
		return fmt.Errorf("node repl probe: replica holds %d of %d items", got, items)
	}
	before := a.Metrics().ReplBytesOut
	const roundsTimed = 64
	us("node.repl_round_us", perCall(roundsTimed, func(n int) {
		for i := 0; i < n; i++ {
			a.ReplicationRound()
		}
	}))
	perRound := float64(a.Metrics().ReplBytesOut-before) / (roundsTimed * probeRepeats)
	out["node.repl_bytes_per_item"] = metric{perRound / items, "B"}
	return nil
}

// probeCore times one auxiliary selection over 1024 observed peers
// with Zipf 1.2 frequencies, k = 8, beside 16 core neighbours.
func probeCore(us func(string, float64)) error {
	space := id.NewSpace(idBits)
	rng := randx.New(2)
	all := randx.UniqueIDs(rng, 1024+16+1, space.Size())
	self := id.ID(all[0])
	var coreIDs []id.ID
	for _, x := range all[1:17] {
		coreIDs = append(coreIDs, id.ID(x))
	}
	weights := randx.ZipfWeights(1024, zipfAlpha)
	peers := make([]core.Peer, 1024)
	for i, x := range all[17:] {
		peers[i] = core.Peer{ID: id.ID(x), Freq: weights[i]}
	}
	var selErr error
	us("core.select_chord_fast_us", perCall(8, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := core.SelectChordFast(space, self, coreIDs, peers, auxCount); err != nil {
				selErr = err
			}
		}
	}))
	us("core.select_pastry_greedy_us", perCall(8, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := core.SelectPastryGreedy(space, coreIDs, peers, auxCount); err != nil {
				selErr = err
			}
		}
	}))
	if selErr != nil {
		return fmt.Errorf("core probe: %w", selErr)
	}
	return nil
}
