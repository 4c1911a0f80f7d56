// Command p2pbench regenerates the paper's evaluation figures
// (Section VI) as text tables, and — in live mode — measures the real
// runtime at scale.
//
// Simulator figures:
//
//	p2pbench -experiment fig3|fig4|fig5|fig6|all [-quick] [-seed N]
//	         [-sizes 256,512,1024] [-n 1024] [-items 16] [-bits 32]
//	         [-warmup 900] [-duration 3600] [-format text|csv]
//
// Extension experiments: -experiment qos|estimate|sketch|replication|
// global|maintenance|digits, or "extensions" for all of them.
//
// Live benchmark (boots a real memnet overlay per geometry, drives a
// Zipf workload, emits the BENCH_live.json schema; see
// docs/BENCHMARKS.md):
//
//	p2pbench -live [-proto chord|pastry|kademlia|all] [-n 1024]
//	         [-seed 1] [-aux 8] [-quick] [-out BENCH_live.json]
//	         [-compare BENCH_live.json]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Schema check only: p2pbench -validate BENCH_live.json
//
// Full-scale runs use the paper's parameters (n up to 2048, 32-bit ids,
// hour-long simulated churn windows) and take minutes; -quick shrinks
// everything for a fast sanity pass (live mode: n=128).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"peercache/internal/experiment"
	"peercache/internal/livebench"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "figure to reproduce: fig3, fig4, fig5, fig6 or all")
		quick    = flag.Bool("quick", false, "shrink every parameter for a fast sanity run")
		seed     = flag.Int64("seed", 1, "base random seed")
		sizes    = flag.String("sizes", "", "comma-separated n values overriding the sweep (fig3/fig5)")
		fixedN   = flag.Int("n", 0, "fixed n for the k sweeps (fig4/fig6; default 1024); live overlay size")
		items    = flag.Int("items", 0, "items per node (default 16)")
		bits     = flag.Uint("bits", 0, "identifier length in bits (default 32; live default 16)")
		warmup   = flag.Float64("warmup", 0, "churn warmup seconds (default 900)")
		duration = flag.Float64("duration", 0, "churn measured seconds (default 3600)")
		format   = flag.String("format", "text", "output format: text or csv")

		live       = flag.Bool("live", false, "run the live benchmark instead of simulator figures")
		proto      = flag.String("proto", "all", "live geometry: chord, pastry, kademlia or all")
		aux        = flag.Int("aux", 8, "live auxiliary-neighbor budget k")
		out        = flag.String("out", "", "live: write BENCH_live.json here (default: stdout)")
		compare    = flag.String("compare", "", "live: baseline BENCH_live.json to gate mean hops against")
		validate   = flag.String("validate", "", "validate a BENCH_live.json against the schema and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile here (live mode)")
		memprofile = flag.String("memprofile", "", "write a heap profile here (live mode)")
	)
	flag.Parse()

	if *validate != "" {
		f, err := livebench.Load(*validate)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("p2pbench: %s: valid %s document\n", *validate, f.Schema)
		return
	}
	if *live {
		n := *fixedN
		if n == 0 && *quick {
			n = 128
		}
		runLive(livebench.Options{
			Proto:    *proto,
			N:        n,
			Seed:     *seed,
			Bits:     *bits,
			AuxCount: *aux,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}, *out, *compare, *cpuprofile, *memprofile)
		return
	}

	scale := experiment.Scale{
		FixedN:       *fixedN,
		Bits:         *bits,
		ItemsPerNode: *items,
		Warmup:       *warmup,
		Duration:     *duration,
		Seed:         *seed,
	}
	if *sizes != "" {
		for _, tok := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || n < 2 {
				fatalf("invalid -sizes entry %q", tok)
			}
			scale.Sizes = append(scale.Sizes, n)
		}
	}
	if *quick {
		if len(scale.Sizes) == 0 {
			scale.Sizes = []int{128, 256}
		}
		if scale.FixedN == 0 {
			scale.FixedN = 256
		}
		if scale.Bits == 0 {
			scale.Bits = 20
		}
		if scale.ItemsPerNode == 0 {
			scale.ItemsPerNode = 4
		}
		if scale.Warmup == 0 {
			scale.Warmup = 300
		}
		if scale.Duration == 0 {
			scale.Duration = 1200
		}
	}

	figures := map[string]func(experiment.Scale) (experiment.Table, error){
		"fig3":        experiment.Fig3,
		"fig4":        experiment.Fig4,
		"fig5":        experiment.Fig5,
		"fig6":        experiment.Fig6,
		"qos":         experiment.ExtQoS,
		"estimate":    experiment.ExtEstimate,
		"sketch":      experiment.ExtSketch,
		"replication": experiment.ExtReplication,
		"global":      experiment.ExtGlobal,
		"maintenance": experiment.ExtMaintenance,
		"digits":      experiment.ExtDigits,
		"portability": experiment.ExtPortability,
	}
	var order []string
	switch *exp {
	case "all":
		order = []string{"fig3", "fig4", "fig5", "fig6"}
	case "extensions":
		order = []string{"qos", "estimate", "sketch", "replication", "global", "maintenance", "digits", "portability"}
	default:
		if _, ok := figures[*exp]; !ok {
			fatalf("unknown experiment %q (want fig3..fig6, qos, estimate, sketch, extensions or all)", *exp)
		}
		order = []string{*exp}
	}

	for _, name := range order {
		start := time.Now()
		table, err := figures[name](scale)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		switch *format {
		case "text":
			if err := table.Render(os.Stdout); err != nil {
				fatalf("render %s: %v", name, err)
			}
			fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		case "csv":
			if err := table.RenderCSV(os.Stdout); err != nil {
				fatalf("render %s: %v", name, err)
			}
		default:
			fatalf("unknown format %q (want text or csv)", *format)
		}
	}
}

// runLive executes the live benchmark for o's geometry, or every
// geometry when o.Proto is "all", and handles output, schema
// self-validation, baseline comparison, and profiling.
func runLive(o livebench.Options, out, compare, cpuprofile, memprofile string) {
	protos := livebench.Protos
	if o.Proto != "all" {
		protos = []string{o.Proto}
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	var runs []livebench.Result
	for _, p := range protos {
		o.Proto = p
		r, err := livebench.Run(o)
		if err != nil {
			fatalf("%v", err)
		}
		runs = append(runs, *r)
	}
	file := livebench.NewFile(runs)
	if err := file.Validate(); err != nil {
		fatalf("emitted document fails own schema: %v", err)
	}
	if out != "" {
		if err := file.Write(out); err != nil {
			fatalf("write %s: %v", out, err)
		}
		fmt.Fprintf(os.Stderr, "p2pbench: wrote %s\n", out)
	} else {
		b, _ := json.MarshalIndent(file, "", "  ")
		fmt.Println(string(b))
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			fatalf("-memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("-memprofile: %v", err)
		}
	}
	if compare != "" {
		baseline, err := livebench.Load(compare)
		if err != nil {
			fatalf("-compare: %v", err)
		}
		if err := livebench.Compare(baseline, runs); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "p2pbench: mean hops within %.2f of %s baseline (ttfb gate %dx, repl gate 1/%d, wan p99 gate %dx)\n",
			livebench.HopsTolerance, compare, livebench.TTFBTolerance, livebench.ReplTolerance, livebench.P99Tolerance)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p2pbench: "+format+"\n", args...)
	os.Exit(1)
}
