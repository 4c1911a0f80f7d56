package livebench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Schema identifies the BENCH_live.json document format. Bump the
// version on any incompatible field change and teach Validate both.
const (
	// Schema is the current format: v4 adds the WAN latency phase — the
	// converged overlay on a seeded coordinate WAN topology, with
	// hop-greedy and QoS-aware auxiliary selection arms (wall-latency
	// p50/p99 each), the QoS arm repeated under exponential-lifetime
	// churn at the paper's session rate, and a flash-crowd arm before
	// and after one aux adaptation. At full scale (nodes ≥ 1024) the
	// headline claim is part of the schema: across the document's
	// full-scale runs, QoS p99 must beat hop-greedy p99 on at least two
	// geometries.
	Schema = "peercache-livebench/v4"
	// SchemaV3 is the previous format — replication data plane
	// (anti-entropy byte rates, repl_reduction, the hot-key read phase)
	// — still loadable so committed trajectories and older tooling keep
	// working; WAN fields are not enforced on it.
	SchemaV3 = "peercache-livebench/v3"
	// SchemaV2 added the streaming phase, fix_fingers_batch, and the
	// stranded_keys-at-zero gate; replication fields are not enforced on
	// it.
	SchemaV2 = "peercache-livebench/v2"
	// SchemaV1 is the original format; stream fields and the stranded
	// gate are not enforced on it either.
	SchemaV1 = "peercache-livebench/v1"
)

// File is the persisted BENCH_live.json document: one run per geometry
// from a single generation pass, plus provenance.
type File struct {
	Schema      string   `json:"schema"`
	GeneratedAt string   `json:"generated_at"` // RFC 3339 UTC
	Runs        []Result `json:"runs"`
}

// NewFile assembles a document from runs, stamped now.
func NewFile(runs []Result) *File {
	return &File{
		Schema:      Schema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Runs:        runs,
	}
}

// Write marshals the document to path, indented, trailing newline.
func (f *File) Write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads and validates a BENCH_live.json document. Unknown fields
// are rejected: the file is a schema-checked artifact, not a config.
func Load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("livebench: %s: %w", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("livebench: %s: %w", path, err)
	}
	return &f, nil
}

// Validate checks the document against the schema's semantic
// constraints — the CI job runs this against freshly emitted files so
// a field that silently stops being populated fails the build instead
// of committing zeros into the trajectory.
func (f *File) Validate() error {
	v4 := f.Schema == Schema
	v3 := v4 || f.Schema == SchemaV3
	v2 := v3 || f.Schema == SchemaV2
	if !v2 && f.Schema != SchemaV1 {
		return fmt.Errorf("schema %q, want %q (or legacy %q, %q, %q)", f.Schema, Schema, SchemaV3, SchemaV2, SchemaV1)
	}
	if _, err := time.Parse(time.RFC3339, f.GeneratedAt); err != nil {
		return fmt.Errorf("generated_at: %w", err)
	}
	if len(f.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	known := make(map[string]bool, len(Protos))
	for _, p := range Protos {
		known[p] = true
	}
	seen := make(map[string]bool)
	for i, r := range f.Runs {
		at := func(field string) string {
			return fmt.Sprintf("run %d (%s): %s", i, r.Proto, field)
		}
		if !known[r.Proto] {
			return fmt.Errorf("run %d: unknown proto %q", i, r.Proto)
		}
		if seen[r.Proto] {
			return fmt.Errorf("run %d: duplicate proto %q", i, r.Proto)
		}
		seen[r.Proto] = true
		pos := map[string]float64{
			"nodes":                       float64(r.Nodes),
			"bits":                        float64(r.Bits),
			"alpha":                       float64(r.Alpha),
			"keys":                        float64(r.Keys),
			"zipf_alpha":                  r.ZipfAlpha,
			"ops":                         float64(r.Ops),
			"workers":                     float64(r.Workers),
			"mean_hops":                   r.MeanHops,
			"mean_latency_us":             r.MeanLatencyUS,
			"p99_latency_us":              r.P99LatencyUS,
			"ops_per_sec":                 r.OpsPerSec,
			"msgs_per_sec":                r.MsgsPerSec,
			"bytes_per_sec":               r.BytesPerSec,
			"maint_msgs_per_sec_per_node": r.MaintMsgsPerSecPerNode,
			"wall_ms":                     float64(r.WallMS),
		}
		if v2 {
			pos["fix_fingers_batch"] = float64(r.FixFingersBatch)
			pos["stream_object_bytes"] = float64(r.StreamObjectBytes)
			pos["stream_chunk_size"] = float64(r.StreamChunkSize)
			pos["stream_chunks"] = float64(r.StreamChunks)
			pos["stream_reads"] = float64(r.StreamReads)
			pos["stream_ttfb_us"] = r.StreamTTFBUS
			pos["stream_mbps"] = r.StreamMBPS
		}
		if v3 {
			pos["replicate_every_ms"] = float64(r.ReplicateEveryMS)
			pos["store_shards"] = float64(r.StoreShards)
			pos["repl_bytes_per_sec"] = r.ReplBytesPerSec
			pos["repl_full_push_bytes_per_sec"] = r.ReplFullPushBytesPerSec
			pos["repl_reduction"] = r.ReplReduction
			pos["hot_reads"] = float64(r.HotReads)
			pos["hot_degraded_reads"] = float64(r.HotDegradedReads)
			pos["hot_owner_ops_per_sec"] = r.HotOwnerOpsPerSec
			pos["hot_any_ops_per_sec"] = r.HotAnyOpsPerSec
			pos["hot_degraded_ops_per_sec"] = r.HotDegradedOpsPerSec
			// The degraded arm exists to show replicas serving; a zero
			// hit rate means the replica read path never engaged.
			pos["replica_hit_rate"] = r.ReplicaHitRate
		}
		if v4 {
			pos["wan_regions"] = float64(r.WANRegions)
			pos["wan_scale"] = r.WANScale
			pos["wan_sources"] = float64(r.WANSources)
			pos["wan_hot_keys"] = float64(r.WANHotKeys)
			pos["wan_ops"] = float64(r.WANOps)
			pos["wan_qos_bound_ms"] = r.WANQoSBoundMS
			pos["wan_hop_p50_us"] = r.WANHopP50US
			pos["wan_hop_p99_us"] = r.WANHopP99US
			pos["wan_qos_p50_us"] = r.WANQoSP50US
			pos["wan_qos_p99_us"] = r.WANQoSP99US
			pos["wan_churn_mean_life_ms"] = float64(r.WANChurnMeanLifeMS)
			pos["wan_churn_p50_us"] = r.WANChurnP50US
			pos["wan_churn_p99_us"] = r.WANChurnP99US
			pos["wan_flash_reads"] = float64(r.WANFlashReads)
			pos["wan_flash_p99_us"] = r.WANFlashP99US
			pos["wan_flash_adapted_p99_us"] = r.WANFlashAdaptedP99US
			// A run where the constrained optimizer never decided a
			// selection measured nothing: the QoS arm was hop-greedy with
			// extra steps.
			pos["wan_qos_selects"] = float64(r.WANQoSSelects)
		}
		for field, v := range pos {
			if v <= 0 {
				return fmt.Errorf("%s = %g, want > 0", at(field), v)
			}
		}
		nonNeg := map[string]float64{
			"p50_hops":        r.P50Hops,
			"p99_hops":        r.P99Hops,
			"aux_hit_rate":    r.AuxHitRate,
			"lookup_failures": float64(r.LookupFailures),
			"stranded_keys":   float64(r.StrandedKeys),
			"converge_ms":     float64(r.ConvergeMS),
		}
		if v2 {
			nonNeg["stream_prefetch"] = float64(r.StreamPrefetch)
		}
		if v3 {
			nonNeg["repl_fallbacks"] = float64(r.ReplFallbacks)
			nonNeg["hot_failures"] = float64(r.HotFailures)
		}
		if v4 {
			nonNeg["wan_qos_infeasible"] = float64(r.WANQoSInfeasible)
			nonNeg["wan_failures"] = float64(r.WANFailures)
			nonNeg["wan_churn_restarts"] = float64(r.WANChurnRestarts)
			nonNeg["wan_churn_failures"] = float64(r.WANChurnFailures)
		}
		for field, v := range nonNeg {
			if v < 0 {
				return fmt.Errorf("%s = %g, want >= 0", at(field), v)
			}
		}
		// v2 promotes stranded keys from a recorded count to a failing
		// invariant: the repair loop must have drained every one.
		if v2 && r.StrandedKeys != 0 {
			return fmt.Errorf("%s = %d, want 0 (the repair loop must drain stranded keys)",
				at("stranded_keys"), r.StrandedKeys)
		}
		// v3 makes the digest protocol's headline claim part of the
		// schema at full scale: a committed 1024-node trajectory that
		// stops showing the ≥5x anti-entropy reduction fails here
		// instead of silently recording the regression. Small-n quick
		// runs (fewer owned items per node, so per-message overhead
		// weighs more) are exempt from the absolute floor; Compare
		// still gates them against the baseline's ratio.
		if v3 && r.Nodes >= 1024 && r.ReplReduction < 5 {
			return fmt.Errorf("%s = %.2f, want >= 5 at n >= 1024 (digest anti-entropy reduction)",
				at("repl_reduction"), r.ReplReduction)
		}
		if r.P99Hops < r.P50Hops {
			return fmt.Errorf("%s", at("p99_hops below p50_hops"))
		}
		if r.AuxHitRate > 1 {
			return fmt.Errorf("%s = %g, want <= 1", at("aux_hit_rate"), r.AuxHitRate)
		}
		if v4 {
			if r.WANHopP99US < r.WANHopP50US {
				return fmt.Errorf("%s", at("wan_hop_p99_us below wan_hop_p50_us"))
			}
			if r.WANQoSP99US < r.WANQoSP50US {
				return fmt.Errorf("%s", at("wan_qos_p99_us below wan_qos_p50_us"))
			}
			if r.WANChurnP99US < r.WANChurnP50US {
				return fmt.Errorf("%s", at("wan_churn_p99_us below wan_churn_p50_us"))
			}
			// At the paper's session rate a full-scale churn arm sees
			// about one departure per second; a zero-restart arm means
			// the churn machinery silently stopped.
			if r.Nodes >= 1024 && r.WANChurnRestarts == 0 {
				return fmt.Errorf("%s = 0, want >= 1 at n >= 1024 (churn arm never churned)", at("wan_churn_restarts"))
			}
		}
	}
	// v4's headline claim at full scale is cross-run: among the
	// document's full-scale geometries, latency-aware selection must
	// beat the frequency-only baseline at the tail on at least two (all,
	// when the document carries fewer than two).
	if v4 {
		fullScale, wins := 0, 0
		for _, r := range f.Runs {
			if r.Nodes < 1024 {
				continue
			}
			fullScale++
			if r.WANQoSP99US < r.WANHopP99US {
				wins++
			}
		}
		if need := min(2, fullScale); wins < need {
			return fmt.Errorf("wan_qos_p99_us below wan_hop_p99_us on %d of %d full-scale runs, want >= %d (QoS selection must beat hop-greedy at the tail)",
				wins, fullScale, need)
		}
	}
	return nil
}

// Compare's gates. Hops are the routing-quality signal and survive
// machine-speed differences, so their gate is an additive budget.
// Stream TTFB and WAN tail latency do not, so theirs are coarse
// fell-off-a-cliff multiples. The anti-entropy reduction is a ratio,
// stable across scale and machine where raw byte rates are not, so its
// gate is a shrink factor.
const (
	HopsTolerance = 0.75 // allowed mean-hops excess over the baseline
	TTFBTolerance = 3    // allowed stream-TTFB multiple of the baseline
	ReplTolerance = 2    // allowed anti-entropy-reduction shrink factor
	P99Tolerance  = 3    // allowed WAN-QoS-p99 multiple of the baseline
)

// Compare gates runs against a committed baseline, per geometry present
// in both: mean hops within HopsTolerance of the baseline's, stream TTFB
// within TTFBTolerance times it, the anti-entropy reduction
// (repl_reduction, the full-push bytes over the digest bytes actually
// sent) above the baseline's divided by ReplTolerance, and the WAN
// QoS-arm tail latency (wan_qos_p99_us) within P99Tolerance times it.
// A gate is skipped when either side predates its phase (streaming v2,
// replication v3, WAN v4). Geometries in only one side are ignored, so
// a quick CI run (smaller n, where hops are lower anyway) still
// compares meaningfully against the committed full-scale file.
func Compare(baseline *File, runs []Result) error {
	base := make(map[string]Result, len(baseline.Runs))
	for _, r := range baseline.Runs {
		base[r.Proto] = r
	}
	for _, r := range runs {
		b, ok := base[r.Proto]
		if !ok {
			continue
		}
		if r.MeanHops > b.MeanHops+HopsTolerance {
			return fmt.Errorf("livebench: %s mean hops %.3f exceeds baseline %.3f by more than %.2f (n=%d vs baseline n=%d)",
				r.Proto, r.MeanHops, b.MeanHops, HopsTolerance, r.Nodes, b.Nodes)
		}
		if r.StreamTTFBUS > 0 && b.StreamTTFBUS > 0 && r.StreamTTFBUS > b.StreamTTFBUS*TTFBTolerance {
			return fmt.Errorf("livebench: %s stream ttfb %.0fus exceeds %dx the baseline %.0fus (n=%d vs baseline n=%d)",
				r.Proto, r.StreamTTFBUS, TTFBTolerance, b.StreamTTFBUS, r.Nodes, b.Nodes)
		}
		if r.ReplReduction > 0 && b.ReplReduction > 0 && r.ReplReduction < b.ReplReduction/ReplTolerance {
			return fmt.Errorf("livebench: %s anti-entropy reduction %.2fx below 1/%d of the baseline %.2fx (n=%d vs baseline n=%d)",
				r.Proto, r.ReplReduction, ReplTolerance, b.ReplReduction, r.Nodes, b.Nodes)
		}
		if r.WANQoSP99US > 0 && b.WANQoSP99US > 0 && r.WANQoSP99US > b.WANQoSP99US*P99Tolerance {
			return fmt.Errorf("livebench: %s WAN QoS p99 %.0fus exceeds %dx the baseline %.0fus (n=%d vs baseline n=%d)",
				r.Proto, r.WANQoSP99US, P99Tolerance, b.WANQoSP99US, r.Nodes, b.Nodes)
		}
	}
	return nil
}
