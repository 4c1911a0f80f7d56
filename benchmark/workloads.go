package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"peercache/internal/chunk"
	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node/kadring"
	"peercache/internal/node/pastryring"
	"peercache/internal/node/ring"
	"peercache/internal/randx"
)

// Fixed harness constants, shared by every workload. The overlay is
// sized so that one run sets up three times, warms up and measures
// inside the benchmark driver's time cap; the periods are constants,
// not n-scaled, so idle maintenance leaves most of the CPU to clients
// (README.md, "Why not livebench's periods").
const (
	overlayNodes = 64
	idBits       = 16
	auxCount     = 8
	neighborLen  = 4 // successor list / one leaf-set side
	bucketSize   = 8

	stabilizeEvery  = 25 * time.Millisecond
	fixFingersEvery = 10 * time.Millisecond
	fixFingersBatch = 4
	auxEvery        = 250 * time.Millisecond
	replicateEvery  = time.Second
	rpcTimeout      = 250 * time.Millisecond
	// With five retries a peer is evicted only after six losses in a
	// row, so no op fails under lossyDrop and `failed` compares exactly
	// between commits (README.md, "Why not the ISSUE's overlay").
	rpcRetries = 5

	keyUniverse = 2048
	zipfAlpha   = 1.2
	valueLen    = 1024
	putShare    = 0.2

	streamObjects   = 16
	streamChunks    = 16
	streamObjectLen = streamChunks * chunk.DefaultChunkSize
	streamPrefetch  = 2

	// pastry_lookup_lossy's links: 2 % loss, and a one-way delay that
	// makes the median op a timer-bound round trip instead of the
	// wake-up latency of an idle box.
	lossyDrop  = 0.02
	lossyDelay = time.Millisecond
)

// geometry is one routing geometry with its convergence and ownership
// oracles over a static membership.
type geometry struct {
	name      string
	module    string       // the package that implements it, the layer name of its metrics
	newRing   ring.Factory // nil selects node's default, chord
	converged func(c *cluster.Cluster, timeout time.Duration) error
	owner     func(sorted []id.ID, key id.ID) id.ID
}

var (
	chordGeo = &geometry{
		name:      "chord",
		module:    "chordring",
		converged: func(c *cluster.Cluster, d time.Duration) error { return c.WaitConverged(d) },
		owner:     cluster.Owner,
	}
	pastryGeo = &geometry{
		name:      "pastry",
		module:    "pastryring",
		newRing:   pastryring.New,
		converged: func(c *cluster.Cluster, d time.Duration) error { return c.WaitConvergedPastry(neighborLen, d) },
		owner:     ownerPastry,
	}
	kadGeo = &geometry{
		name:      "kademlia",
		module:    "kadring",
		newRing:   kadring.New,
		converged: func(c *cluster.Cluster, d time.Duration) error { return c.WaitConvergedKademlia(bucketSize, d) },
		owner:     cluster.OwnerKademlia,
	}
)

// ownerPastry is the member numerically closest to key on the circle,
// an equidistant pair resolved toward the predecessor side, which is
// pastryring's tie convention.
func ownerPastry(sorted []id.ID, key id.ID) id.ID {
	space := id.NewSpace(idBits)
	best, bestDist, bestGap := sorted[0], uint64(1)<<63, uint64(0)
	for _, x := range sorted {
		gap := space.Gap(x, key) // clockwise from x to key
		dist := gap
		if back := space.Gap(key, x); back < dist {
			dist = back
		}
		if dist < bestDist || (dist == bestDist && gap < bestGap) {
			best, bestDist, bestGap = x, dist, gap
		}
	}
	return best
}

type opKind uint8

const (
	opLookup opKind = iota
	opGet
	opPut
	opStream
)

// workload is one traffic mix on one geometry.
type workload struct {
	name    string
	why     string
	geo     *geometry
	stream  bool              // ops are whole-object reads through chunk.Store
	puts    float64           // share of ops that are Put; the rest are Get (0: Lookup only)
	kv      bool              // Get/Put instead of Lookup
	link    memnet.LinkPolicy // installed on every link after set-up
	clients int               // closed-loop client goroutines
}

// cpuClients is the client count of the CPU-bound workloads: each
// client waits for its reply, and two of them keep both cores of the
// reference box busy together with the overlay's own goroutines.
const cpuClients = 2

// lossyClients is larger because pastry_lookup_lossy is timer-bound:
// a client spends its time waiting out a round trip, a hedge or a
// timeout, and two clients would complete too few ops per window for a
// p99.
const lossyClients = 32

var workloads = []*workload{
	{
		name:    "chord_lookup_zipf",
		why:     "the paper's case: small-message Lookups on chord load the lookup race, next-hop, wire, memnet and aux selection; store and chunk are bypassed",
		geo:     chordGeo,
		clients: cpuClients,
	},
	{
		name:    "pastry_kv_mixed",
		why:     "80% Get / 20% Put of 1 KiB values on pastry: store, checksums, versions and digest anti-entropy run beside reads",
		geo:     pastryGeo,
		kv:      true,
		puts:    putShare,
		clients: cpuClients,
	},
	{
		name:    "kad_stream",
		why:     "whole-object chunked reads on kademlia: 4 KiB datagrams, FindValue and the chunk reader; per-byte costs dominate per-message costs",
		geo:     kadGeo,
		stream:  true,
		clients: cpuClients,
	},
	{
		name:    "pastry_lookup_lossy",
		why:     "the Zipf Lookup mix over links that drop 2% and delay 1 ms is timer-bound: only timeout, retry and hedge behaviour move it, CPU-side gains must not",
		geo:     pastryGeo,
		link:    memnet.LinkPolicy{Drop: lossyDrop, MinDelay: lossyDelay, MaxDelay: lossyDelay},
		clients: lossyClients,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// object is one streamed object: its root key and its bytes.
type object struct {
	root id.ID
	data []byte
}

// inputs is everything one round of one workload feeds the overlay,
// all of it a function of (workload, seed, round).
type inputs struct {
	space   id.Space
	ids     []uint64 // node ids, in join order
	sorted  []id.ID  // node ids ascending: the static-membership oracle
	keys    []id.ID  // key universe; Zipf rank i is keys[i]
	owners  []id.ID  // owners[i] is the oracle owner of keys[i]
	zipf    *randx.Alias
	body    []byte // pseudo-random filler of every kv value
	objects []object
}

func genInputs(w *workload, seed int64, round int) *inputs {
	rng := randx.New(randx.DeriveSeed(seed, fmt.Sprintf("%s/inputs/%d", w.name, round)))
	space := id.NewSpace(idBits)
	in := &inputs{space: space}
	in.ids = randx.UniqueIDs(rng, overlayNodes, space.Size())
	in.sorted = make([]id.ID, len(in.ids))
	for i, x := range in.ids {
		in.sorted[i] = id.ID(x)
	}
	sort.Slice(in.sorted, func(i, j int) bool { return in.sorted[i] < in.sorted[j] })
	if w.stream {
		roots := drawRoots(rng, space, streamObjects, streamChunks)
		for _, root := range roots {
			data := make([]byte, streamObjectLen)
			rng.Read(data)
			in.objects = append(in.objects, object{root: root, data: data})
		}
		return in
	}
	for _, k := range randx.UniqueIDs(rng, keyUniverse, space.Size()) {
		in.keys = append(in.keys, id.ID(k))
		in.owners = append(in.owners, w.geo.owner(in.sorted, id.ID(k)))
	}
	in.zipf = randx.NewAlias(randx.ZipfWeights(keyUniverse, zipfAlpha))
	in.body = make([]byte, valueLen)
	rng.Read(in.body)
	return in
}

// objectKeys lists every ring key an object rooted at root occupies:
// the manifest under root, then one derived key per chunk.
func objectKeys(space id.Space, root id.ID, chunks int) []id.ID {
	keys := []id.ID{root}
	for i := 0; i < chunks; i++ {
		keys = append(keys, chunk.Key(space, root, i))
	}
	return keys
}

// drawRoots draws n object roots such that no two of all their
// manifest and chunk keys coincide. In a 16-bit space derived keys do
// collide; a collision would make one object overwrite another's chunk,
// so a colliding root is drawn again.
func drawRoots(rng *rand.Rand, space id.Space, n, chunks int) []id.ID {
	used := make(map[id.ID]bool)
	var roots []id.ID
draw:
	for len(roots) < n {
		root := id.ID(rng.Uint64() % space.Size())
		keys := objectKeys(space, root, chunks)
		mine := make(map[id.ID]bool, len(keys))
		for _, k := range keys {
			if used[k] || mine[k] {
				continue draw
			}
			mine[k] = true
		}
		for k := range mine {
			used[k] = true
		}
		roots = append(roots, root)
	}
	return roots
}

// op is one generated client operation.
type op struct {
	kind   opKind
	origin int // index of the node the client calls into
	item   int // index into inputs.keys, or inputs.objects for opStream
}

// opSource generates one client's op sequence from its own seeded
// stream, so the sequence does not depend on how fast ops complete.
type opSource struct {
	w   *workload
	in  *inputs
	rng *rand.Rand
}

func newOpSource(w *workload, in *inputs, seed int64, round int, phase string, client int) *opSource {
	label := fmt.Sprintf("%s/ops/%d/%s/%d", w.name, round, phase, client)
	return &opSource{w: w, in: in, rng: randx.New(randx.DeriveSeed(seed, label))}
}

func (s *opSource) next() op {
	o := op{origin: s.rng.Intn(overlayNodes)}
	switch {
	case s.w.stream:
		o.kind = opStream
		o.item = s.rng.Intn(len(s.in.objects))
	case s.w.kv:
		o.item = s.in.zipf.Sample(s.rng)
		o.kind = opGet
		if s.rng.Float64() < s.w.puts {
			o.kind = opPut
		}
	default:
		o.item = s.in.zipf.Sample(s.rng)
	}
	return o
}

// fillValue writes the kv value for (key, seq) into buf, which has
// valueLen bytes: key, seq, filler, and an FNV-64a checksum of all that
// in the last eight bytes.
func fillValue(buf, body []byte, key id.ID, seq uint64) {
	copy(buf, body)
	binary.BigEndian.PutUint64(buf[0:], uint64(key))
	binary.BigEndian.PutUint64(buf[8:], seq)
	h := fnv.New64a()
	h.Write(buf[:len(buf)-8])
	binary.BigEndian.PutUint64(buf[len(buf)-8:], h.Sum64())
}

// checkValue reports whether v is an intact value written for key.
func checkValue(v []byte, key id.ID) bool {
	if len(v) != valueLen || id.ID(binary.BigEndian.Uint64(v)) != key {
		return false
	}
	h := fnv.New64a()
	h.Write(v[:len(v)-8])
	return binary.BigEndian.Uint64(v[len(v)-8:]) == h.Sum64()
}
