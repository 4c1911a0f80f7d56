// Cold start of a whole Kademlia overlay on memnet. External test
// package: internal/cluster imports internal/node, which imports
// kadring.
package kadring_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
	"peercache/internal/node/kadring"
)

// The repo benchmark's overlay shape and periods (benchmark/workloads.go).
const (
	coldNodes      = 64
	coldBits       = 16
	coldBucketSize = 8
	coldNeighbors  = 4
	coldStabilize  = 25 * time.Millisecond
	coldRepair     = 10 * time.Millisecond
	coldRPCTimeout = 250 * time.Millisecond
	coldRPCRetries = 5
	coldLimit      = 10 * time.Second
)

// repairCounter is a node.Scheduler that counts the runs of every job
// with the repair period, RepairTable's. Runs counted this way stay a
// property of the protocol when a loaded host (the race detector, a
// busy CI runner) stretches the wall-clock period.
type repairCounter struct {
	node.Scheduler
	runs atomic.Int64
}

func (s *repairCounter) Every(period time.Duration, fn func()) node.JobHandle {
	if period != coldRepair {
		return s.Scheduler.Every(period, fn)
	}
	return s.Scheduler.Every(period, func() {
		fn()
		s.runs.Add(1)
	})
}

// coldStart boots coldNodes kademlia nodes with distinct ids drawn from
// seed, every one joining through the first as cluster.Start does, and
// polls the bucket oracle. It returns the RepairTable runs per node
// that ran after the last join until cluster.CheckKademliaConverged
// held, and the datagrams per node delivered in the same span. It fails
// tb when that does not happen within coldLimit.
func coldStart(tb testing.TB, seed int64) (runs, datagrams float64) {
	tb.Helper()
	space := id.NewSpace(coldBits)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint64]bool, coldNodes)
	ids := make([]uint64, 0, coldNodes)
	for len(ids) < coldNodes {
		if x := rng.Uint64() & (space.Size() - 1); !seen[x] {
			seen[x] = true
			ids = append(ids, x)
		}
	}
	batch := node.NewBatchScheduler(4 * coldNodes)
	defer batch.Close()
	sched := &repairCounter{Scheduler: batch}
	nw := memnet.New(seed)
	defer nw.CloseAll()

	c, err := cluster.Start(space, nw, ids, func(_ int, cfg *node.Config) {
		cfg.NewRing = kadring.New
		cfg.BucketSize = coldBucketSize
		cfg.SuccessorListLen = coldNeighbors
		cfg.StabilizeEvery = coldStabilize
		cfg.FixFingersEvery = coldRepair
		cfg.RPCTimeout = coldRPCTimeout
		cfg.RPCRetries = coldRPCRetries
		cfg.Scheduler = sched
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	joined, sent := sched.runs.Load(), nw.Stats().Delivered
	for deadline := time.Now().Add(coldLimit); ; time.Sleep(time.Millisecond) {
		err := cluster.CheckKademliaConverged(space, c.Nodes, coldBucketSize)
		if err == nil {
			return float64(sched.runs.Load()-joined) / coldNodes,
				float64(nw.Stats().Delivered-sent) / coldNodes
		}
		if time.Now().After(deadline) {
			tb.Fatalf("seed %d: not converged after %v: %v", seed, coldLimit, err)
		}
	}
}

// coldStartMaxRuns bounds the cold start of coldNodes nodes that all
// joined through one node, in RepairTable runs per node after the last
// join: four sweeps of the 16 buckets. While a refresh walk stopped at
// the first owner answering for itself, without reading its closest
// list, the oracle held only after about 100–160 runs.
const coldStartMaxRuns = 64

// TestKademliaColdStartConverges: a 64-node overlay whose nodes all
// joined through one node fills every bucket the oracle expects within
// coldStartMaxRuns RepairTable runs per node.
func TestKademliaColdStartConverges(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		runs, datagrams := coldStart(t, seed)
		t.Logf("seed %d: converged after %.1f repair runs and %.0f datagrams per node", seed, runs, datagrams)
		if runs > coldStartMaxRuns {
			t.Errorf("seed %d: converged after %.1f repair runs per node, want at most %d",
				seed, runs, coldStartMaxRuns)
		}
	}
}

// BenchmarkStabilizeColdStartKademlia times one cold start of the repo
// benchmark's kademlia overlay up to the bucket oracle (ns/op: the wall
// time of one cold start, boot and close included) and reports the
// RepairTable runs per node after the last join (runs/op) and the
// datagrams per node delivered in that span (datagrams/op).
func BenchmarkStabilizeColdStartKademlia(b *testing.B) {
	var runs, datagrams float64
	for i := 0; i < b.N; i++ {
		r, d := coldStart(b, int64(i+1))
		runs += r
		datagrams += d
	}
	b.ReportMetric(runs/float64(b.N), "runs/op")
	b.ReportMetric(datagrams/float64(b.N), "datagrams/op")
}
