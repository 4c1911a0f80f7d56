package livebench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goodRun returns a Result that passes every Validate constraint.
func goodRun(proto string) Result {
	r := Result{
		Proto: proto, Nodes: 128, Seed: 1, Bits: 16,
		AuxCount: 8, Alpha: 2, SuccessorListLen: 4,
		Keys: 128, ZipfAlpha: 1.2, WarmupOps: 512, Ops: 1024, Workers: 8,
		StabilizeMS: 50, FixFingersMS: 16, FixFingersBatch: 8, AuxEveryMS: 200,
		BootMS: 900, ConvergeMS: 80,
		MeanHops: 1.6, P50Hops: 1, P99Hops: 4,
		MeanLatencyUS: 300, P50LatencyUS: 200, P99LatencyUS: 900,
		OpsPerSec: 5000, MsgsPerSec: 20000, BytesPerSec: 800000,
		AuxHitRate: 0.35, MaintMsgsPerSecPerNode: 30,
		MaintBytesPerSecPerNode: 1200, WallMS: 9000,
		StreamObjectBytes: 1 << 20, StreamChunkSize: 4096, StreamChunks: 257,
		StreamPrefetch: 2, StreamReads: 3, StreamTTFBUS: 2200, StreamMBPS: 35,
		ReplicateEveryMS: 2000, ReplBytesPerSec: 4000,
		ReplFullPushBytesPerSec: 26000, ReplReduction: 6.5,
		HotReads: 512, HotDegradedReads: 64,
		HotOwnerOpsPerSec: 3000, HotAnyOpsPerSec: 3100, HotDegradedOpsPerSec: 150,
		ReplicaHitRate: 0.8,
		WANRegions:     3, WANScale: 0.12, WANSources: 32, WANHotKeys: 16,
		WANOps: 256, WANQoSBoundMS: 12.5,
		WANHopP50US: 9000, WANHopP99US: 42000,
		WANQoSP50US: 8000, WANQoSP99US: 30000,
		WANQoSSelects: 64, WANQoSInfeasible: 0, WANFailures: 0,
		WANChurnMeanLifeMS: 900000, WANChurnRestarts: 5,
		WANChurnP50US: 9500, WANChurnP99US: 48000, WANChurnFailures: 2,
		WANFlashReads: 128, WANFlashP99US: 52000, WANFlashAdaptedP99US: 18000,
	}
	if proto == "kademlia" {
		r.BucketSize = 8
	}
	return r
}

// A freshly assembled document with sane runs must round-trip through
// Write and Load, and Load must enforce the schema.
func TestFileRoundTrip(t *testing.T) {
	f := NewFile([]Result{goodRun("chord"), goodRun("pastry"), goodRun("kademlia")})
	if err := f.Validate(); err != nil {
		t.Fatalf("good document fails validation: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_live.json")
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 3 || got.Runs[0].MeanHops != 1.6 {
		t.Fatalf("round trip mangled runs: %+v", got.Runs)
	}
}

// Load must reject documents CI should never accept: wrong schema tag,
// unknown fields (stale field renames), and semantically dead values.
func TestFileValidateRejects(t *testing.T) {
	cases := map[string]struct {
		mutate func(*File)
		want   string
	}{
		"wrong schema": {
			mutate: func(f *File) { f.Schema = "peercache-livebench/v0" },
			want:   "schema",
		},
		"previous schema": {
			mutate: func(f *File) { f.Schema = "peercache-livebench/v4" },
			want:   "schema",
		},
		"bad timestamp": {
			mutate: func(f *File) { f.GeneratedAt = "yesterday" },
			want:   "generated_at",
		},
		"no runs": {
			mutate: func(f *File) { f.Runs = nil },
			want:   "no runs",
		},
		"unknown proto": {
			mutate: func(f *File) { f.Runs[0].Proto = "gnutella" },
			want:   "unknown proto",
		},
		"duplicate proto": {
			mutate: func(f *File) { f.Runs = append(f.Runs, goodRun("chord")) },
			want:   "duplicate proto",
		},
		"zeroed hops": {
			mutate: func(f *File) { f.Runs[0].MeanHops = 0 },
			want:   "mean_hops",
		},
		"inverted percentiles": {
			mutate: func(f *File) { f.Runs[0].P50Hops = 9 },
			want:   "p99_hops below p50_hops",
		},
		"impossible hit rate": {
			mutate: func(f *File) { f.Runs[0].AuxHitRate = 1.5 },
			want:   "aux_hit_rate",
		},
		"missing stream ttfb": {
			mutate: func(f *File) { f.Runs[0].StreamTTFBUS = 0 },
			want:   "stream_ttfb_us",
		},
		"missing stream throughput": {
			mutate: func(f *File) { f.Runs[0].StreamMBPS = 0 },
			want:   "stream_mbps",
		},
		"stranded keys survive": {
			mutate: func(f *File) { f.Runs[0].StrandedKeys = 3 },
			want:   "stranded_keys",
		},
		"missing repl bytes": {
			mutate: func(f *File) { f.Runs[0].ReplBytesPerSec = 0 },
			want:   "repl_bytes_per_sec",
		},
		"missing hot throughput": {
			mutate: func(f *File) { f.Runs[0].HotAnyOpsPerSec = 0 },
			want:   "hot_any_ops_per_sec",
		},
		"replica path never engaged": {
			mutate: func(f *File) { f.Runs[0].ReplicaHitRate = 0 },
			want:   "replica_hit_rate",
		},
		"full-scale run below the reduction floor": {
			mutate: func(f *File) {
				f.Runs[0].Nodes = 1024
				f.Runs[0].ReplReduction = 3
			},
			want: "repl_reduction",
		},
		"missing wan hop p99": {
			mutate: func(f *File) { f.Runs[0].WANHopP99US = 0 },
			want:   "wan_hop_p99_us",
		},
		"inverted wan qos percentiles": {
			mutate: func(f *File) { f.Runs[0].WANQoSP50US = f.Runs[0].WANQoSP99US * 2 },
			want:   "wan_qos_p99_us below wan_qos_p50_us",
		},
		"qos selector never engaged": {
			mutate: func(f *File) { f.Runs[0].WANQoSSelects = 0 },
			want:   "wan_qos_selects",
		},
		"full-scale churn arm never churned": {
			mutate: func(f *File) {
				f.Runs[0].Nodes = 1024
				f.Runs[0].WANChurnRestarts = 0
			},
			want: "wan_churn_restarts",
		},
		"full-scale qos loses to hop-greedy": {
			mutate: func(f *File) {
				f.Runs[0].Nodes = 1024
				f.Runs[0].WANQoSP99US = f.Runs[0].WANHopP99US + 1
			},
			want: "wan_qos_p99_us below wan_hop_p99_us",
		},
	}
	for name, tc := range cases {
		f := NewFile([]Result{goodRun("chord")})
		tc.mutate(f)
		err := f.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", name, err, tc.want)
		}
	}

	// Unknown fields mark a schema drift and must fail Load.
	path := filepath.Join(t.TempDir(), "drift.json")
	f := NewFile([]Result{goodRun("chord")})
	if err := f.Write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(string(b), `"mean_hops"`, `"avg_hops"`, 1)
	if err := os.WriteFile(path, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a document with an unknown field")
	}
}

// The cross-run full-scale gate: a document whose full-scale runs do
// not show QoS beating hop-greedy on at least two geometries fails, and
// a document with a single full-scale run needs only that one.
func TestFileQoSBeatsHopGate(t *testing.T) {
	full := func(proto string) Result {
		r := goodRun(proto)
		r.Nodes = 1024
		return r
	}
	f := NewFile([]Result{full("chord"), full("pastry"), full("kademlia")})
	if err := f.Validate(); err != nil {
		t.Fatalf("three winning full-scale runs rejected: %v", err)
	}
	// One loss of three still passes; two losses fail.
	f.Runs[0].WANQoSP99US = f.Runs[0].WANHopP99US * 1.5
	if err := f.Validate(); err != nil {
		t.Fatalf("two of three wins rejected: %v", err)
	}
	f.Runs[1].WANQoSP99US = f.Runs[1].WANHopP99US * 1.5
	if err := f.Validate(); err == nil {
		t.Fatal("one of three wins accepted")
	}
	// A single full-scale run must itself win.
	solo := NewFile([]Result{full("chord")})
	solo.Runs[0].WANQoSP99US = solo.Runs[0].WANHopP99US * 1.5
	if err := solo.Validate(); err == nil {
		t.Fatal("sole losing full-scale run accepted")
	}
	// Small-n documents are exempt: quick CI runs are not where the
	// headline claim is judged.
	quick := NewFile([]Result{goodRun("chord")})
	quick.Runs[0].WANQoSP99US = quick.Runs[0].WANHopP99US * 1.5
	if err := quick.Validate(); err != nil {
		t.Fatalf("small-n run gated on the full-scale claim: %v", err)
	}
}

// Compare gates mean hops per geometry additively, stream TTFB and the
// WAN QoS p99 multiplicatively, and the anti-entropy reduction ratio
// against a shrink factor; tolerates small regressions and ignores
// geometries missing from either side.
func TestCompare(t *testing.T) {
	baseline := NewFile([]Result{goodRun("chord"), goodRun("pastry")})

	ok := goodRun("chord")
	ok.MeanHops = baseline.Runs[0].MeanHops + 0.5
	if err := Compare(baseline, []Result{ok}); err != nil {
		t.Fatalf("within-tolerance run rejected: %v", err)
	}

	bad := goodRun("chord")
	bad.MeanHops = baseline.Runs[0].MeanHops + 1.0
	if err := Compare(baseline, []Result{bad}); err == nil {
		t.Fatal("regressed run accepted")
	}

	novel := goodRun("kademlia") // not in baseline: ignored
	novel.MeanHops = 99
	if err := Compare(baseline, []Result{novel}); err != nil {
		t.Fatalf("novel geometry gated against nothing: %v", err)
	}

	slow := goodRun("chord")
	slow.StreamTTFBUS = baseline.Runs[0].StreamTTFBUS * 2
	if err := Compare(baseline, []Result{slow}); err != nil {
		t.Fatalf("within-tolerance ttfb rejected: %v", err)
	}
	slow.StreamTTFBUS = baseline.Runs[0].StreamTTFBUS * 4
	if err := Compare(baseline, []Result{slow}); err == nil {
		t.Fatal("cliff-regressed ttfb accepted")
	}

	// The anti-entropy gate: a reduction within the shrink factor of
	// the baseline passes, below it fails.
	lessEff := goodRun("chord")
	lessEff.ReplReduction = baseline.Runs[0].ReplReduction / 1.5
	if err := Compare(baseline, []Result{lessEff}); err != nil {
		t.Fatalf("within-shrink-factor reduction rejected: %v", err)
	}
	lessEff.ReplReduction = baseline.Runs[0].ReplReduction / 4
	if err := Compare(baseline, []Result{lessEff}); err == nil {
		t.Fatal("collapsed anti-entropy reduction accepted")
	}

	// The WAN tail gate: a QoS p99 within the multiple of the
	// baseline's passes, past it fails.
	tail := goodRun("chord")
	tail.WANQoSP99US = baseline.Runs[0].WANQoSP99US * 2
	if err := Compare(baseline, []Result{tail}); err != nil {
		t.Fatalf("within-tolerance wan qos p99 rejected: %v", err)
	}
	tail.WANQoSP99US = baseline.Runs[0].WANQoSP99US * 4
	if err := Compare(baseline, []Result{tail}); err == nil {
		t.Fatal("cliff-regressed wan qos p99 accepted")
	}
}

// The committed trajectory must load at the current schema: a document
// left behind by a schema bump fails here, not in a CI job that only
// runs the live bench.
func TestCommittedBenchLiveValidates(t *testing.T) {
	f, err := Load(filepath.Join("..", "..", "BENCH_live.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != Schema {
		t.Fatalf("committed schema %q, want %q", f.Schema, Schema)
	}
}
