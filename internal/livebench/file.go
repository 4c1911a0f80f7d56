package livebench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Schema identifies the BENCH_live.json document format, the only one
// Load accepts: the configuration, the Zipf lookup workload, idle
// maintenance, the streaming phase, the replication data plane
// (anti-entropy byte rates, repl_reduction, the hot-key read arms) and
// the WAN latency phase (hop-greedy and QoS-aware aux arms, the QoS arm
// under paper-rate churn, a flash crowd before and after one aux
// adaptation). Bump the version on any incompatible field change and
// regenerate the committed document.
const Schema = "peercache-livebench/v5"

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
	if f.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", f.Schema, Schema)
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

			"fix_fingers_batch":   float64(r.FixFingersBatch),
			"stream_object_bytes": float64(r.StreamObjectBytes),
			"stream_chunk_size":   float64(r.StreamChunkSize),
			"stream_chunks":       float64(r.StreamChunks),
			"stream_reads":        float64(r.StreamReads),
			"stream_ttfb_us":      r.StreamTTFBUS,
			"stream_mbps":         r.StreamMBPS,

			"replicate_every_ms":           float64(r.ReplicateEveryMS),
			"repl_bytes_per_sec":           r.ReplBytesPerSec,
			"repl_full_push_bytes_per_sec": r.ReplFullPushBytesPerSec,
			"repl_reduction":               r.ReplReduction,
			"hot_reads":                    float64(r.HotReads),
			"hot_degraded_reads":           float64(r.HotDegradedReads),
			"hot_owner_ops_per_sec":        r.HotOwnerOpsPerSec,
			"hot_any_ops_per_sec":          r.HotAnyOpsPerSec,
			"hot_degraded_ops_per_sec":     r.HotDegradedOpsPerSec,
			// The degraded arm exists to show replicas serving; a zero
			// hit rate means the replica read path never engaged.
			"replica_hit_rate": r.ReplicaHitRate,

			"wan_regions":              float64(r.WANRegions),
			"wan_scale":                r.WANScale,
			"wan_sources":              float64(r.WANSources),
			"wan_hot_keys":             float64(r.WANHotKeys),
			"wan_ops":                  float64(r.WANOps),
			"wan_qos_bound_ms":         r.WANQoSBoundMS,
			"wan_hop_p50_us":           r.WANHopP50US,
			"wan_hop_p99_us":           r.WANHopP99US,
			"wan_qos_p50_us":           r.WANQoSP50US,
			"wan_qos_p99_us":           r.WANQoSP99US,
			"wan_churn_mean_life_ms":   float64(r.WANChurnMeanLifeMS),
			"wan_churn_p50_us":         r.WANChurnP50US,
			"wan_churn_p99_us":         r.WANChurnP99US,
			"wan_flash_reads":          float64(r.WANFlashReads),
			"wan_flash_p99_us":         r.WANFlashP99US,
			"wan_flash_adapted_p99_us": r.WANFlashAdaptedP99US,
			// A run where the constrained optimizer never decided a
			// selection measured nothing: the QoS arm was hop-greedy with
			// extra steps.
			"wan_qos_selects": float64(r.WANQoSSelects),
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

			"stream_prefetch":    float64(r.StreamPrefetch),
			"repl_fallbacks":     float64(r.ReplFallbacks),
			"hot_failures":       float64(r.HotFailures),
			"wan_qos_infeasible": float64(r.WANQoSInfeasible),
			"wan_failures":       float64(r.WANFailures),
			"wan_churn_restarts": float64(r.WANChurnRestarts),
			"wan_churn_failures": float64(r.WANChurnFailures),
		}
		for field, v := range nonNeg {
			if v < 0 {
				return fmt.Errorf("%s = %g, want >= 0", at(field), v)
			}
		}
		// Stranded keys are a failing invariant, not a recorded count:
		// the repair loop must have drained every one.
		if r.StrandedKeys != 0 {
			return fmt.Errorf("%s = %d, want 0 (the repair loop must drain stranded keys)",
				at("stranded_keys"), r.StrandedKeys)
		}
		// The digest protocol's headline claim is part of the schema at
		// full scale: a committed 1024-node trajectory that
		// stops showing the ≥5x anti-entropy reduction fails here
		// instead of silently recording the regression. Small-n quick
		// runs (fewer owned items per node, so per-message overhead
		// weighs more) are exempt from the absolute floor; Compare
		// still gates them against the baseline's ratio.
		if r.Nodes >= 1024 && r.ReplReduction < 5 {
			return fmt.Errorf("%s = %.2f, want >= 5 at n >= 1024 (digest anti-entropy reduction)",
				at("repl_reduction"), r.ReplReduction)
		}
		if r.P99Hops < r.P50Hops {
			return fmt.Errorf("%s", at("p99_hops below p50_hops"))
		}
		if r.AuxHitRate > 1 {
			return fmt.Errorf("%s = %g, want <= 1", at("aux_hit_rate"), r.AuxHitRate)
		}
		if r.WANHopP99US < r.WANHopP50US {
			return fmt.Errorf("%s", at("wan_hop_p99_us below wan_hop_p50_us"))
		}
		if r.WANQoSP99US < r.WANQoSP50US {
			return fmt.Errorf("%s", at("wan_qos_p99_us below wan_qos_p50_us"))
		}
		if r.WANChurnP99US < r.WANChurnP50US {
			return fmt.Errorf("%s", at("wan_churn_p99_us below wan_churn_p50_us"))
		}
		// At the paper's session rate a full-scale churn arm sees about
		// one departure per second; a zero-restart arm means the churn
		// machinery silently stopped.
		if r.Nodes >= 1024 && r.WANChurnRestarts == 0 {
			return fmt.Errorf("%s = 0, want >= 1 at n >= 1024 (churn arm never churned)", at("wan_churn_restarts"))
		}
	}
	// The headline claim at full scale is cross-run: among the
	// document's full-scale geometries, latency-aware selection must
	// beat the frequency-only baseline at the tail on at least two (all,
	// when the document carries fewer than two).
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
// Geometries in only one side are ignored, so a quick CI run (smaller
// n, where hops are lower anyway) still compares meaningfully against
// the committed full-scale file.
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
		if r.StreamTTFBUS > b.StreamTTFBUS*TTFBTolerance {
			return fmt.Errorf("livebench: %s stream ttfb %.0fus exceeds %dx the baseline %.0fus (n=%d vs baseline n=%d)",
				r.Proto, r.StreamTTFBUS, TTFBTolerance, b.StreamTTFBUS, r.Nodes, b.Nodes)
		}
		if r.ReplReduction < b.ReplReduction/ReplTolerance {
			return fmt.Errorf("livebench: %s anti-entropy reduction %.2fx below 1/%d of the baseline %.2fx (n=%d vs baseline n=%d)",
				r.Proto, r.ReplReduction, ReplTolerance, b.ReplReduction, r.Nodes, b.Nodes)
		}
		if r.WANQoSP99US > b.WANQoSP99US*P99Tolerance {
			return fmt.Errorf("livebench: %s WAN QoS p99 %.0fus exceeds %dx the baseline %.0fus (n=%d vs baseline n=%d)",
				r.Proto, r.WANQoSP99US, P99Tolerance, b.WANQoSP99US, r.Nodes, b.Nodes)
		}
	}
	return nil
}
