package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/node"
	"peercache/internal/node/chordring"
	"peercache/internal/node/kadring"
	"peercache/internal/node/pastryring"
	"peercache/internal/node/ring"
	"peercache/internal/wire"
)

// runWithTimeout drives the daemon's run with a bounded context, for
// tests that expect it to fail fast during startup.
func runWithTimeout(t *testing.T, args []string) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var buf bytes.Buffer
	return run(ctx, args, &buf)
}

// The metrics endpoint must serve the node's identity, table sizes, and
// counters as JSON.
func TestMetricsEndpoint(t *testing.T) {
	space := id.NewSpace(16)
	n, err := node.Start(node.Config{
		Space:           space,
		ID:              4242,
		Addr:            "127.0.0.1:0",
		StabilizeEvery:  50 * time.Millisecond,
		FixFingersEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// A lookup on the ring of one resolves locally and bumps the
	// counter the endpoint must report.
	if _, _, err := n.Lookup(id.ID(7)); err != nil {
		t.Fatal(err)
	}

	srv, addr, err := serveMetrics(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var p metricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.ID != 4242 {
		t.Fatalf("id %d, want 4242", p.ID)
	}
	if p.Addr != n.Addr() {
		t.Fatalf("addr %q, want %q", p.Addr, n.Addr())
	}
	if p.Successor != 4242 || p.SuccessorList != 1 {
		t.Fatalf("ring of one reported successor=%d list=%d", p.Successor, p.SuccessorList)
	}
	if p.Protocol != "chord" {
		t.Fatalf("protocol %q, want chord", p.Protocol)
	}
	if p.TableSize != n.TableSize() {
		t.Fatalf("table_size %d, want %d", p.TableSize, n.TableSize())
	}
	if p.Metrics.Lookups != 1 {
		t.Fatalf("lookups %d, want 1", p.Metrics.Lookups)
	}
}

// The payload must report the active geometry's name and its table
// size — prefix rows, not fingers — when the node runs Pastry.
func TestMetricsProtocolPastry(t *testing.T) {
	space := id.NewSpace(16)
	cfg := func(x id.ID) node.Config {
		return node.Config{
			Space:           space,
			ID:              x,
			Addr:            "127.0.0.1:0",
			NewRing:         pastryring.New,
			StabilizeEvery:  50 * time.Millisecond,
			FixFingersEvery: 10 * time.Millisecond,
			RPCTimeout:      250 * time.Millisecond,
		}
	}
	a, err := node.Start(cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := node.Start(cfg(40000))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); a.Successor().ID != b.ID(); {
		if time.Now().After(deadline) {
			t.Fatal("pastry pair never formed")
		}
		time.Sleep(25 * time.Millisecond)
	}

	srv, addr, err := serveMetrics(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := scrape(t, addr)
	if p.Protocol != "pastry" {
		t.Fatalf("protocol %q, want pastry", p.Protocol)
	}
	if p.Successor != uint64(b.ID()) {
		t.Fatalf("successor %d, want %d", p.Successor, b.ID())
	}
	if p.TableSize != a.TableSize() || p.TableSize == 0 {
		t.Fatalf("table_size %d, node reports %d", p.TableSize, a.TableSize())
	}
}

// scrape fetches and decodes one metrics payload.
func scrape(t *testing.T, addr string) metricsPayload {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p metricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	return p
}

// The payload must carry the data-plane store counters and the live
// auxiliary-neighbor list, including position-aliased entries pointing
// at a hot key's owner.
func TestMetricsReportStoreAndAuxNeighbors(t *testing.T) {
	space := id.NewSpace(16)
	cfg := func(x id.ID) node.Config {
		return node.Config{
			Space:           space,
			ID:              x,
			Addr:            "127.0.0.1:0",
			AuxCount:        2,
			StabilizeEvery:  50 * time.Millisecond,
			FixFingersEvery: 10 * time.Millisecond,
			RPCTimeout:      250 * time.Millisecond,
			// Owner-only copies: a replica of the hot key landing on a
			// would turn its Get into a local store hit that never fills
			// the item cache the assertions below count.
			ReplicationFactor: 1,
		}
	}
	a, err := node.Start(cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := node.Start(cfg(40000))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); a.Successor().ID != b.ID(); {
		if time.Now().After(deadline) {
			t.Fatal("ring never formed")
		}
		time.Sleep(25 * time.Millisecond)
	}

	key := id.ID(10000) // (100, 40000] -> owned by b
	if _, err := a.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get(key); err != nil { // remote fetch, fills a's cache
		t.Fatal(err)
	}
	if _, err := a.RecomputeAux(); err != nil {
		t.Fatal(err)
	}

	srvA, addrA, err := serveMetrics(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, addrB, err := serveMetrics(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	pa := scrape(t, addrA)
	if pa.Store.ItemsCached != 1 {
		t.Fatalf("a items_cached %d, want 1", pa.Store.ItemsCached)
	}
	if pa.Metrics.PutsIssued != 1 || pa.Metrics.GetsIssued != 1 {
		t.Fatalf("a issued counters %+v", pa.Metrics)
	}
	// The key's id was observed as lookup traffic, so the recomputed aux
	// set contains a position-aliased pointer: the key's ring position,
	// addressed at its owner.
	found := false
	for _, aux := range pa.AuxNeighbors {
		if aux.ID == uint64(key) && aux.Addr == b.Addr() {
			found = true
		}
	}
	if !found {
		t.Fatalf("a aux_neighbors %v lack the aliased hot-key pointer {%d %s}", pa.AuxNeighbors, key, b.Addr())
	}
	if pa.Aux != len(pa.AuxNeighbors) {
		t.Fatalf("aux count %d disagrees with list %v", pa.Aux, pa.AuxNeighbors)
	}

	pb := scrape(t, addrB)
	if pb.Store.ItemsOwned != 1 || pb.Store.PutsServed < 1 || pb.Store.GetsServed < 1 {
		t.Fatalf("b store stats %+v", pb.Store)
	}

	// Both sides exchanged real datagrams (join, put, get), so the
	// cumulative traffic counters must be live on both, and bytes must
	// dominate datagrams — every message carries a header.
	for name, p := range map[string]metricsPayload{"a": pa, "b": pb} {
		tr := p.Traffic
		if tr.DatagramsIn == 0 || tr.DatagramsOut == 0 {
			t.Fatalf("%s traffic datagram counters dead: %+v", name, tr)
		}
		if tr.BytesIn <= tr.DatagramsIn || tr.BytesOut <= tr.DatagramsOut {
			t.Fatalf("%s traffic byte counters implausible: %+v", name, tr)
		}
		if tr.DatagramsIn != p.Metrics.DatagramsIn || tr.BytesOut != p.Metrics.BytesOut {
			t.Fatalf("%s traffic block disagrees with metrics: %+v vs %+v", name, tr, p.Metrics)
		}
	}
}

// The rtt block must appear with live estimates on every geometry: the
// join handshake alone is a correlated RPC, so a freshly joined pair
// already has per-contact smoothed RTTs on both sides, and the aux_qos
// flag must reflect the node's configuration through a proto switch.
func TestMetricsReportRTTAcrossProtocols(t *testing.T) {
	space := id.NewSpace(16)
	for _, g := range []struct {
		proto   string
		factory ring.Factory
	}{
		{"chord", chordring.New},
		{"pastry", pastryring.New},
		{"kademlia", kadring.New},
	} {
		t.Run(g.proto, func(t *testing.T) {
			cfg := func(x id.ID) node.Config {
				return node.Config{
					Space:           space,
					ID:              x,
					Addr:            "127.0.0.1:0",
					NewRing:         g.factory,
					AuxQoS:          true,
					StabilizeEvery:  50 * time.Millisecond,
					FixFingersEvery: 10 * time.Millisecond,
					RPCTimeout:      250 * time.Millisecond,
				}
			}
			a, err := node.Start(cfg(100))
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := node.Start(cfg(40000))
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.Join(a.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := a.Ping(b.Addr()); err != nil {
				t.Fatal(err)
			}

			srv, addr, err := serveMetrics(a, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			p := scrape(t, addr)
			if p.Protocol != g.proto {
				t.Fatalf("protocol %q, want %q", p.Protocol, g.proto)
			}
			r := p.RTT
			if r.Samples == 0 || r.Contacts == 0 || len(r.PerContact) != r.Contacts {
				t.Fatalf("rtt block dead or inconsistent: %+v", r)
			}
			if !r.AuxQoS {
				t.Fatal("aux_qos false with the feature configured on")
			}
			found := false
			for _, c := range r.PerContact {
				if c.ID == uint64(b.ID()) {
					found = true
					if c.SRTTMs <= 0 || c.RTTVarMs <= 0 || c.Samples == 0 || c.Addr != b.Addr() {
						t.Fatalf("estimate for %d implausible: %+v", b.ID(), c)
					}
					// b's join walk sent a requests, so a has heard it.
					if c.HeardMsAgo < 0 {
						t.Fatalf("joined peer %d never heard: %+v", b.ID(), c)
					}
				}
			}
			if !found {
				t.Fatalf("no per-contact estimate for joined peer %d: %+v", b.ID(), r.PerContact)
			}
		})
	}
}

// An evicted contact's estimate must disappear from the scrape: when a
// direct aux pointer's peer dies, the stabilize round retires the
// pointer and its contact-cache entry together (node.go), and the rtt
// table — which lives under the same lock — drops the estimate with
// them. Ids are chosen so c is neither a's successor nor one of its
// fingers (b shadows it in the only interval containing both), making
// the recomputed aux entry a direct node pointer, the one whose
// eviction path forgets the address.
func TestMetricsRTTDecaysAfterEviction(t *testing.T) {
	space := id.NewSpace(16)
	cfg := func(x id.ID) node.Config {
		return node.Config{
			Space:            space,
			ID:               x,
			Addr:             "127.0.0.1:0",
			AuxCount:         2,
			SuccessorListLen: 1,
			StabilizeEvery:   50 * time.Millisecond,
			FixFingersEvery:  10 * time.Millisecond,
			RPCTimeout:       250 * time.Millisecond,
		}
	}
	a, err := node.Start(cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := node.Start(cfg(20000))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := node.Start(cfg(30000))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []*node.Node{b, c} {
		if err := n.Join(a.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(15 * time.Second); ; {
		if err := cluster.CheckChordConverged(space, []*node.Node{a, b, c}); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("ring never converged: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Time c directly, observe it as lookup traffic, and install the
	// direct aux pointer.
	if err := a.Ping(c.Addr()); err != nil {
		t.Fatal(err)
	}
	if owner, _, err := a.Lookup(c.ID()); err != nil || owner.ID != c.ID() {
		t.Fatalf("lookup of %d: owner %v err %v", c.ID(), owner, err)
	}
	if _, err := a.RecomputeAux(); err != nil {
		t.Fatal(err)
	}
	hasAuxC := false
	for _, x := range a.Aux() {
		if x.ID == c.ID() {
			hasAuxC = true
		}
	}
	if !hasAuxC {
		t.Fatalf("aux %v lacks the direct pointer to %d", a.Aux(), c.ID())
	}

	srv, addr, err := serveMetrics(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	present := func(p metricsPayload) bool {
		for _, e := range p.RTT.PerContact {
			if e.ID == uint64(c.ID()) {
				return true
			}
		}
		return false
	}
	if p := scrape(t, addr); !present(p) {
		t.Fatalf("estimate for %d missing before eviction: %+v", c.ID(), p.RTT)
	}

	c.Crash()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if p := scrape(t, addr); !present(p) {
			if p.RTT.Contacts != len(p.RTT.PerContact) {
				t.Fatalf("contacts gauge %d disagrees with table %d", p.RTT.Contacts, len(p.RTT.PerContact))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("estimate for %d survived its contact's eviction", c.ID())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// The -metrics-addr flag must wire the endpoint into the daemon and
// announce the bound address.
func TestDaemonMetricsFlag(t *testing.T) {
	// Covered end to end in TestDaemonJoinsAndServes-style plumbing:
	// here we only check flag rejection of a bad address, which must
	// abort startup rather than run without metrics.
	err := runWithTimeout(t, []string{
		"-addr", "127.0.0.1:0",
		"-bits", "16",
		"-id", "9",
		"-metrics-addr", "256.0.0.1:bad",
		"-stats-every", "0",
	})
	if err == nil {
		t.Fatal("bad -metrics-addr accepted")
	}
}

// The replication block must surface the digest anti-entropy counters —
// batches out/in, the diff shipped, and both byte totals — and the
// store block the replica-served read count, live from a real round.
func TestMetricsReportReplication(t *testing.T) {
	space := id.NewSpace(16)
	cfg := func(x id.ID) node.Config {
		return node.Config{
			Space:             space,
			ID:                x,
			Addr:              "127.0.0.1:0",
			StabilizeEvery:    50 * time.Millisecond,
			FixFingersEvery:   10 * time.Millisecond,
			RPCTimeout:        250 * time.Millisecond,
			ReplicationFactor: 2,
			ReplicateEvery:    -1, // rounds driven by hand below
		}
	}
	a, err := node.Start(cfg(100))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := node.Start(cfg(40000))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); a.Successor().ID != b.ID() || b.Successor().ID != a.ID(); {
		if time.Now().After(deadline) {
			t.Fatal("ring never formed")
		}
		time.Sleep(25 * time.Millisecond)
	}

	key := id.ID(10000) // owned by b; its replica target is a
	if _, err := a.Put(key, []byte("replicated")); err != nil {
		t.Fatal(err)
	}
	b.ReplicationRound()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, _, ok := a.Item(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never reached a")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A GET landing on the replica holder is a replica-served read; a
	// raw anonymous datagram pins which node answers.
	conn, err := node.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := wire.Encode(&wire.Message{Type: wire.TGet, MsgID: 1, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.WriteTo(req, a.Addr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	if _, _, err := conn.ReadFrom(buf); err != nil {
		t.Fatal(err)
	}

	srvA, addrA, err := serveMetrics(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, addrB, err := serveMetrics(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	pb := scrape(t, addrB)
	r := pb.Replication
	if r.DigestsOut < 1 || r.DiffKeysOut < 1 {
		t.Fatalf("b replication counters dead: %+v", r)
	}
	if r.ReplBytesOut == 0 || r.ReplBytesFullPush == 0 {
		t.Fatalf("b replication byte counters dead: %+v", r)
	}
	if r.DigestsOut != pb.Metrics.DigestsOut || r.ReplBytesOut != pb.Metrics.ReplBytesOut {
		t.Fatalf("b replication block disagrees with metrics: %+v vs %+v", r, pb.Metrics)
	}

	pa := scrape(t, addrA)
	if pa.Replication.DigestsIn < 1 {
		t.Fatalf("a answered %d digests, want at least 1", pa.Replication.DigestsIn)
	}
	if pa.Store.ReplicaServes != 1 {
		t.Fatalf("a replica_serves %d, want exactly the one raw GET", pa.Store.ReplicaServes)
	}
}
