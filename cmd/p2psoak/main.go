// Command p2psoak runs the deterministic churn soak harness
// (internal/soak) against a live in-process cluster and reports a
// machine-readable verdict: invariant outcomes, workload and churn
// counts, hop/latency stats, and — on any violation — the full event
// schedule, so re-running with the same -seed replays the failing
// scenario exactly.
//
// Usage:
//
//	p2psoak -proto chord|pastry|kademlia [-seed 1] [-events 200] [-nodes 16]
//	        [-keys 32] [-quiesce 50] [-aux 4] [-tick 10ms] [-json] [-v]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The process exits 0 when every invariant held, 1 on any violation,
// 2 on a harness error. With -json the verdict is a single JSON
// object on stdout; without it, a human-readable summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"peercache/internal/soak"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "p2psoak: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("p2psoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		proto   = fs.String("proto", "chord", "routing geometry: chord, pastry, or kademlia")
		seed    = fs.Int64("seed", 1, "scenario seed; a verdict's seed replays its schedule")
		events  = fs.Int("events", 200, "schedule length")
		nodes   = fs.Int("nodes", 16, "initial cluster size")
		keys    = fs.Int("keys", 32, "key universe size (Zipf 1.2 popularity)")
		quiesce = fs.Int("quiesce", 50, "events per quiescent checker window")
		aux     = fs.Int("aux", 4, "auxiliary-neighbor budget per node")
		tick    = fs.Duration("tick", 10*time.Millisecond, "step clock quantum")
		asJSON  = fs.Bool("json", false, "emit the verdict as one JSON object")
		verbose = fs.Bool("v", false, "log events and checker progress to stderr")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run here")
		memprofile = fs.String("memprofile", "", "write a heap profile (post-run, post-GC) here")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return 2, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return 2, err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "p2psoak: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "p2psoak: -memprofile: %v\n", err)
			}
		}()
	}
	opts := soak.Options{
		Proto:        *proto,
		Seed:         *seed,
		Events:       *events,
		Nodes:        *nodes,
		Keys:         *keys,
		QuiesceEvery: *quiesce,
		AuxCount:     *aux,
		Tick:         *tick,
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	v, err := soak.Run(opts)
	if err != nil {
		return 2, err
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return 2, err
		}
	} else {
		printVerdict(stdout, v)
	}
	if !v.OK {
		return 1, nil
	}
	return 0, nil
}

func printVerdict(w io.Writer, v *soak.Verdict) {
	status := "PASS"
	if !v.OK {
		status = "FAIL"
	}
	fmt.Fprintf(w, "p2psoak %s: proto=%s seed=%d events=%d/%d windows=%d wall=%dms\n",
		status, v.Proto, v.Seed, v.EventsRun, v.EventsPlanned, v.Windows, v.WallMS)
	fmt.Fprintf(w, "  workload: %d puts, %d gets, %d large puts, %d large gets, %d lookups (%d wrong owner), %d op failures, mean %.2f hops, mean %.0fus/op\n",
		v.Puts, v.Gets, v.PutLarges, v.GetLarges, v.Lookups, v.WrongOwner, v.OpFailures, v.MeanLookupHops, v.MeanOpMicros)
	fmt.Fprintf(w, "  churn: %d joins, %d leaves, %d crashes, %d partitions, %d heals, %d ramps, %d skipped (%d nodes final)\n",
		v.Joins, v.Leaves, v.Crashes, v.Partitions, v.Heals, v.Ramps, v.Skipped, v.FinalNodes)
	fmt.Fprintf(w, "  ledger: %d forfeits, %d stranded\n", v.Forfeits, v.Stranded)
	fmt.Fprintf(w, "  net: %d delivered, %d dropped, %d duplicated, %d blocked, %d unroutable, %d overflow\n",
		v.Net.Delivered, v.Net.Dropped, v.Net.Duplicated, v.Net.Blocked, v.Net.Unroutable, v.Net.Overflow)
	for _, viol := range v.Violations {
		fmt.Fprintf(w, "  VIOLATION window %d [%s]: %s\n", viol.Window, viol.Check, viol.Detail)
	}
	if len(v.Schedule) > 0 {
		fmt.Fprintf(w, "  schedule (%d events, replay with -seed %d):\n", len(v.Schedule), v.Seed)
		for _, ev := range v.Schedule {
			b, _ := json.Marshal(ev)
			fmt.Fprintf(w, "    %s\n", b)
		}
	}
}
