// Command benchmark is the repo's benchmark: it boots real in-process
// overlays (cluster.Start on memnet), drives them closed-loop through
// the public client calls, verifies every result, and prints every
// metric named in BENCHMARK.json with its unit. README.md describes the
// workloads, the metrics and how they interact.
//
//	bash benchmark/run.sh --workload chord_lookup_zipf --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --layers
//	bash benchmark/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of standard output, the form the benchmark
// driver reads.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as kept in the results document.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	verdict
	// WindowSamples is the smallest number of verified ops in any
	// measured window; P99Rank is the percentile lat_p99_us actually is
	// there (99 when every window holds at least 1000 samples).
	// Errored is how many of the Failed ops returned an error; the rest
	// returned a wrong result.
	Errored       int     `json:"errored"`
	WindowSamples int     `json:"window_samples"`
	P99Rank       float64 `json:"p99_rank"`
	// RoundSetupS is the set-up time of every round, in order.
	RoundSetupS []float64 `json:"round_setup_s,omitempty"`
	// WindowOpsS is ops_s of every measured window, in order;
	// WindowSpread is their (max − min) / median.
	WindowOpsS   []float64 `json:"window_ops_s"`
	WindowSpread float64   `json:"window_spread"`
}

// document is the JSON file runs accumulate in, with the environment
// they ran in.
type document struct {
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	LoadAvg    string      `json:"start_load_average"`
	Runs       []runRecord `json:"runs"`
}

// spec mirrors BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	layers   bool
	compare  bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four in turn)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated id, key, value and op sequence")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: layer probes plus a traced run, printing the per-layer metrics")
	flag.BoolVar(&o.layers, "layers", false, "run only the layer probes")
	flag.BoolVar(&o.compare, "compare", false, "compare two results documents: -compare a.json b.json")
	flag.StringVar(&o.out, "out", "benchmark/out", "directory for the results document and span files")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two results documents")
		}
		return compareDocs(sp, args[0], args[1])
	}
	if o.layers {
		probes, err := runLayerProbes()
		if err != nil {
			return err
		}
		printMetrics("layer probes", probes)
		return nil
	}
	if o.seconds == 0 {
		o.seconds = sp.RunSeconds
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", o.seconds)
	}
	todo := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []*workload{w}
	}
	for _, w := range todo {
		var rec runRecord
		want := sp.EndToEnd
		if o.trace == 1 {
			want = sp.PerLayer
			rec, err = runTraced(w, o.seed, o.seconds, o.out)
		} else {
			rec, err = runUntraced(w, o.seed, o.seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := matchSpec(rec.Metrics, want); err != nil {
			return err
		}
		printMetrics(fmt.Sprintf("%s seed=%d seconds=%d trace=%d: attempted %d, failed %d (%d errors), ≥%d ops/window, p99 rank %.2f",
			w.name, o.seed, o.seconds, o.trace, rec.Attempted, rec.Failed, rec.Errored, rec.WindowSamples, rec.P99Rank), rec.Metrics)
		if err := appendRun(o.out, rec); err != nil {
			return err
		}
		line, err := json.Marshal(rec.verdict)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return fmt.Errorf("%s: %d of %d ops failed or returned a wrong result", w.name, rec.Failed, rec.Attempted)
		}
	}
	return nil
}

// matchSpec checks that got holds exactly the metrics want names, with
// their units, so the program and BENCHMARK.json cannot drift apart.
func matchSpec(got map[string]metric, want []metricSpec) error {
	named := make(map[string]bool, len(want))
	for _, m := range want {
		named[m.Name] = true
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !named[name] {
			return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return nil
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, name := range names {
		fmt.Printf("  %-32s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// appendRun adds rec to the results document in dir, creating it with
// the environment on first use.
func appendRun(dir string, rec runRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "results.json")
	var doc document
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else {
		doc = document{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Commit:     os.Getenv("BENCH_COMMIT"), // run.sh sets it from git, when there is one
		}
		if b, err := os.ReadFile("/proc/loadavg"); err == nil {
			doc.LoadAvg = strings.TrimSpace(string(b))
		}
	}
	doc.Runs = append(doc.Runs, rec)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
