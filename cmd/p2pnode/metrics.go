package main

import (
	"encoding/json"
	"net"
	"net/http"
	"time"

	"peercache/internal/node"
)

// metricsPayload is the JSON document served at /metrics: the node's
// identity, a snapshot of its routing-table sizes, the current
// auxiliary-neighbor list, the data-plane store counters, and every
// transport and protocol counter from node.Metrics. One flat document,
// cheap to scrape, stdlib only.
type metricsPayload struct {
	ID   uint64 `json:"id"`
	Addr string `json:"addr"`
	// Protocol names the routing geometry ("chord", "pastry",
	// "kademlia").
	Protocol string `json:"protocol"`

	Successor      uint64 `json:"successor"`
	HasPredecessor bool   `json:"has_predecessor"`
	Predecessor    uint64 `json:"predecessor,omitempty"`
	SuccessorList  int    `json:"successor_list_len"`
	// TableSize counts the populated long-range routing-table entries
	// of whatever geometry runs: distinct fingers on Chord, populated
	// prefix rows on Pastry, bucket contacts on Kademlia.
	TableSize int `json:"table_size"`
	Aux       int `json:"aux"`
	// Alpha is the lookup driver's live probe concurrency.
	Alpha int `json:"alpha"`

	// AuxNeighbors is the live auxiliary set. An entry whose id is a
	// key's ring position rather than a node id is a position-aliased
	// pointer: its address is the key owner's.
	AuxNeighbors []contactJSON `json:"aux_neighbors"`

	Store storeStats `json:"store"`

	// RTT is the latency plane: the estimator's totals, the QoS
	// selection counters, and the per-contact smoothed RTT table.
	RTT rttStats `json:"rtt"`

	// Replication is the digest anti-entropy subset of node.Metrics
	// under scrape-stable names.
	Replication replicationStats `json:"replication"`

	// Traffic is the cumulative wire-level load the node has carried,
	// under scrape-stable names — the live-overhead numbers the bench
	// harness aggregates, observable per daemon here.
	Traffic trafficStats `json:"traffic"`

	Metrics node.Metrics `json:"metrics"`
}

// trafficStats mirrors the transport subset of node.Metrics.
type trafficStats struct {
	DatagramsIn  uint64 `json:"datagrams_in"`
	DatagramsOut uint64 `json:"datagrams_out"`
	BytesIn      uint64 `json:"bytes_in"`
	BytesOut     uint64 `json:"bytes_out"`
}

type contactJSON struct {
	ID   uint64 `json:"id"`
	Addr string `json:"addr"`
}

// rttStats surfaces the measured-latency state behind QoS-aware aux
// selection: every correlated RPC feeds the smoothed RTT of its
// endpoint (EWMA, rtt.go), and the per-contact table here is the
// scrape-stable view of exactly what the node's cost model currently
// believes: one row per cached id whose address has an estimate, so an
// owner-aliased aux pointer shows its owner's estimate. A row
// disappears when its contact is evicted.
type rttStats struct {
	Samples       uint64 `json:"samples"`
	Contacts      int    `json:"contacts"`
	AuxQoS        bool   `json:"aux_qos"`
	QoSSelects    uint64 `json:"qos_selects"`
	QoSInfeasible uint64 `json:"qos_infeasible"`

	PerContact []contactRTTJSON `json:"per_contact"`
}

// contactRTTJSON is one contact's smoothed RTT and RTT variation (the
// lookup race hedges after srtt + 4·rttvar, at least 5 ms) and how long
// ago it was last heard from (a liveness check within one stabilize
// period of that needs no ping; -1 when never heard, or suspected
// since), in milliseconds for scrape ergonomics (dashboards want a
// float, not nanoseconds).
type contactRTTJSON struct {
	ID         uint64  `json:"id"`
	Addr       string  `json:"addr"`
	SRTTMs     float64 `json:"srtt_ms"`
	RTTVarMs   float64 `json:"rttvar_ms"`
	Samples    uint64  `json:"samples"`
	HeardMsAgo float64 `json:"heard_ms_ago"`
}

// storeStats mirrors the data-plane subset of node.Metrics under
// scrape-stable names.
type storeStats struct {
	ItemsOwned   int    `json:"items_owned"`
	ItemsReplica int    `json:"items_replica"`
	ItemsCached  int    `json:"items_cached"`
	PutsServed   uint64 `json:"puts_served"`
	GetsServed   uint64 `json:"gets_served"`
	ReplicasIn   uint64 `json:"replicas_in"`
	ReplicasOut  uint64 `json:"replicas_out"`
	Promotions   uint64 `json:"promotions"`
	Demotions    uint64 `json:"demotions"`
	// ReplicaServes counts reads this node answered from a replica
	// copy (the bounded-staleness read path).
	ReplicaServes uint64 `json:"replica_serves"`
}

// replicationStats surfaces the digest anti-entropy counters: how many
// digest batches were exchanged, the diff actually shipped, full-push
// fallbacks taken, and the byte totals that make the reduction against
// the pre-digest protocol observable per daemon.
type replicationStats struct {
	DigestsOut        uint64 `json:"digests_out"`
	DigestsIn         uint64 `json:"digests_in"`
	DiffKeysOut       uint64 `json:"diff_keys_out"`
	FullPushFallbacks uint64 `json:"full_push_fallbacks"`
	ReplBytesOut      uint64 `json:"repl_bytes_out"`
	ReplBytesFullPush uint64 `json:"repl_bytes_full_push"`
}

func payloadFor(n *node.Node) metricsPayload {
	m := n.Metrics()
	aux := n.Aux()
	auxJSON := make([]contactJSON, len(aux))
	for i, a := range aux {
		auxJSON[i] = contactJSON{ID: uint64(a.ID), Addr: a.Addr}
	}
	rtts := n.ContactRTTs()
	rttJSON := make([]contactRTTJSON, len(rtts))
	for i, r := range rtts {
		rttJSON[i] = contactRTTJSON{
			ID:       uint64(r.ID),
			Addr:     r.Addr,
			SRTTMs:   float64(r.SRTT) / float64(time.Millisecond),
			RTTVarMs: float64(r.RTTVar) / float64(time.Millisecond),
			Samples:  r.Samples,
		}
		rttJSON[i].HeardMsAgo = -1
		if r.Heard >= 0 {
			rttJSON[i].HeardMsAgo = float64(r.Heard) / float64(time.Millisecond)
		}
	}
	p := metricsPayload{
		ID:            uint64(n.ID()),
		Addr:          n.Addr(),
		Protocol:      n.Protocol(),
		Successor:     uint64(n.Successor().ID),
		SuccessorList: len(n.Successors()),
		TableSize:     n.TableSize(),
		Aux:           len(aux),
		Alpha:         m.Alpha,
		AuxNeighbors:  auxJSON,
		Traffic: trafficStats{
			DatagramsIn:  m.DatagramsIn,
			DatagramsOut: m.DatagramsOut,
			BytesIn:      m.BytesIn,
			BytesOut:     m.BytesOut,
		},
		Store: storeStats{
			ItemsOwned:    m.ItemsOwned,
			ItemsReplica:  m.ItemsReplica,
			ItemsCached:   m.ItemsCached,
			PutsServed:    m.PutsServed,
			GetsServed:    m.GetsServed,
			ReplicasIn:    m.ReplicasIn,
			ReplicasOut:   m.ReplicasOut,
			Promotions:    m.Promotions,
			Demotions:     m.Demotions,
			ReplicaServes: m.ReplicaServes,
		},
		RTT: rttStats{
			Samples:       m.RTTSamples,
			Contacts:      m.RTTContacts,
			AuxQoS:        m.AuxQoS,
			QoSSelects:    m.AuxQoSSelects,
			QoSInfeasible: m.AuxQoSInfeasible,
			PerContact:    rttJSON,
		},
		Replication: replicationStats{
			DigestsOut:        m.DigestsOut,
			DigestsIn:         m.DigestsIn,
			DiffKeysOut:       m.DiffKeysOut,
			FullPushFallbacks: m.FullPushFallbacks,
			ReplBytesOut:      m.ReplBytesOut,
			ReplBytesFullPush: m.ReplBytesFullPush,
		},
		Metrics: m,
	}
	if pred, ok := n.Predecessor(); ok {
		p.HasPredecessor = true
		p.Predecessor = uint64(pred.ID)
	}
	return p
}

// serveMetrics starts an HTTP server exposing n's metrics as JSON at
// /metrics on addr (host:0 picks a free port). It returns the server
// and the bound address; the caller closes the server.
func serveMetrics(n *node.Node, addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payloadFor(n))
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
