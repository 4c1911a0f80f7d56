// Command p2pnode runs one live UDP overlay node with the paper's
// peer-caching layer: it joins an overlay, serves iterative lookups,
// and periodically recomputes its optimal auxiliary neighbors from the
// traffic it observes (eq. 1). The routing geometry is selectable with
// -proto: chord (successor list + fingers, the default), pastry (leaf
// set + prefix rows), or kademlia (XOR-metric k-buckets); every node of
// one overlay must run the same geometry.
//
// Bootstrap the first node, then join others through it:
//
//	p2pnode -addr 127.0.0.1:7000 -bits 32 -k 8
//	p2pnode -addr 127.0.0.1:7001 -bits 32 -k 8 -bootstrap 127.0.0.1:7000
//
// The node id defaults to the hash of the advertised address; pass -id
// to pin it. SIGINT/SIGTERM shut the node down cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"peercache/internal/id"
	"peercache/internal/node"
	"peercache/internal/node/chordring"
	"peercache/internal/node/kadring"
	"peercache/internal/node/pastryring"
	"peercache/internal/node/ring"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "p2pnode: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("p2pnode", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "UDP listen address, also the address told to peers, so a wildcard bind (0.0.0.0 or ::) is refused")
		bootstrap   = fs.String("bootstrap", "", "address of any overlay member; empty starts a new ring")
		proto       = fs.String("proto", "chord", "routing geometry: chord, pastry, or kademlia")
		bits        = fs.Uint("bits", 32, "identifier length in bits")
		k           = fs.Int("k", 8, "auxiliary-neighbor budget")
		nodeID      = fs.Uint64("id", 0, "ring id (default: hash of the advertised address)")
		haveID      = false
		succLen     = fs.Int("succlist", 4, "near-neighbor list length (successor list / one leaf-set side)")
		alpha       = fs.Int("alpha", 0, "lookup probe concurrency α (0 uses the default of 3; 1 walks serially)")
		bucketSize  = fs.Int("bucket-size", 0, "kademlia k-bucket capacity (0 uses the default of 20)")
		stabilize   = fs.Duration("stabilize", time.Second, "stabilize period")
		fixFingers  = fs.Duration("fixfingers", 250*time.Millisecond, "long-range table entry refresh period")
		fingerBatch = fs.Int("fix-fingers-batch", 1, "long-range table entries refreshed per period (chord only)")
		auxEvery    = fs.Duration("aux-every", 10*time.Second, "auxiliary recompute period (0 disables)")
		auxQoS      = fs.Bool("aux-qos", false, "latency-aware auxiliary selection: weight observed frequencies by measured RTT and force direct pointers to peers over the delay bound")
		auxQoSBound = fs.Duration("aux-qos-bound", 0, "QoS delay bound on measured RTT (0 uses the 100ms default; negative disables the bound, keeping cost weighting only)")
		rpcTimeout  = fs.Duration("rpc-timeout", 500*time.Millisecond, "per-attempt RPC timeout")
		statsEvery  = fs.Duration("stats-every", 10*time.Second, "status line period (0 disables)")
		metricsAddr = fs.String("metrics-addr", "", "serve node metrics as JSON over HTTP at this address (empty disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "id" {
			haveID = true
		}
	})

	var newRing ring.Factory
	switch *proto {
	case "chord":
		newRing = chordring.New
	case "pastry":
		newRing = pastryring.New
	case "kademlia":
		newRing = kadring.New
	default:
		return fmt.Errorf("unknown -proto %q (chord, pastry, or kademlia)", *proto)
	}

	space := id.NewSpace(*bits)
	cfg := node.Config{
		Space:            space,
		Addr:             *addr,
		NewRing:          newRing,
		AuxCount:         *k,
		SuccessorListLen: *succLen,
		LookupAlpha:      *alpha,
		BucketSize:       *bucketSize,
		StabilizeEvery:   *stabilize,
		FixFingersEvery:  *fixFingers,
		FixFingersBatch:  *fingerBatch,
		AuxEvery:         *auxEvery,
		AuxQoS:           *auxQoS,
		AuxQoSDelayBound: *auxQoSBound,
		RPCTimeout:       *rpcTimeout,
		// The daemon is the real-network deployment: select the UDP
		// provider explicitly (tests and simulators pick memnet).
		Listen: node.ListenUDP,
	}
	if haveID {
		cfg.ID = space.Wrap(*nodeID)
	} else {
		// Hash the *bound* address, so ephemeral ports get distinct
		// ids: bind first, derive, restart with the pinned id. To keep
		// startup simple we hash the requested address when it names a
		// fixed port, and fall back to a time-derived id otherwise.
		cfg.ID = space.HashString(*addr)
		if *addr == "" || *addr == "127.0.0.1:0" {
			cfg.ID = space.Wrap(uint64(time.Now().UnixNano()))
		}
	}

	n, err := node.Start(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	fmt.Fprintf(out, "p2pnode: %s id %d (%s) listening on %s, k=%d, %d-bit ring\n",
		n.Protocol(), n.ID(), space.Format(n.ID()), n.Addr(), *k, *bits)

	if *metricsAddr != "" {
		srv, bound, err := serveMetrics(n, *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(out, "p2pnode: metrics on http://%s/metrics\n", bound)
	}

	if *bootstrap != "" {
		// Bounded retry with backoff: the bootstrap peer may still be
		// coming up when this node starts.
		backoff := 200 * time.Millisecond
		for attempt := 1; ; attempt++ {
			err := n.Join(*bootstrap)
			if err == nil {
				break
			}
			if attempt >= 5 {
				return fmt.Errorf("join via %s: %w", *bootstrap, err)
			}
			fmt.Fprintf(out, "p2pnode: join attempt %d failed (%v), retrying in %v\n", attempt, err, backoff)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil
			}
			backoff *= 2
		}
		fmt.Fprintf(out, "p2pnode: joined via %s, successor %v\n", *bootstrap, n.Successor())
	}

	var statusC <-chan time.Time
	if *statsEvery > 0 {
		tick := time.NewTicker(*statsEvery)
		defer tick.Stop()
		statusC = tick.C
	}
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintf(out, "p2pnode: shutting down\n")
			return nil
		case <-statusC:
			m := n.Metrics()
			succ := n.Successor()
			pred, hasPred := n.Predecessor()
			predStr := "-"
			if hasPred {
				predStr = fmt.Sprint(pred.ID)
			}
			fmt.Fprintf(out,
				"p2pnode: succ=%d pred=%s table=%d aux=%d | rpcs=%d retries=%d timeouts=%d | lookups=%d hops=%d recomputes=%d\n",
				succ.ID, predStr, n.TableSize(), len(n.Aux()),
				m.RPCs, m.Retries, m.Timeouts, m.Lookups, m.LookupHops, m.AuxRecomputes)
		}
	}
}
