// Cold start of a whole Chord overlay on memnet. External test package:
// internal/cluster imports internal/node, which imports chordring.
package chordring_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
)

// The repo benchmark's overlay shape and periods (benchmark/workloads.go).
const (
	coldNodes       = 64
	coldBits        = 16
	coldStabilize   = 25 * time.Millisecond
	coldFixFingers  = 10 * time.Millisecond
	coldFingerBatch = 4
	coldLimit       = 10 * time.Second
)

// stabilizeCounter is a node.Scheduler that counts the runs of every
// job with the stabilize period. Rounds counted this way stay a
// property of the protocol when a loaded host (the race detector, a
// busy CI runner) stretches the wall-clock period.
type stabilizeCounter struct {
	node.Scheduler
	runs atomic.Int64
}

func (s *stabilizeCounter) Every(period time.Duration, fn func()) node.JobHandle {
	if period != coldStabilize {
		return s.Scheduler.Every(period, fn)
	}
	return s.Scheduler.Every(period, func() {
		fn()
		s.runs.Add(1)
	})
}

// coldStart boots coldNodes chord nodes with distinct ids drawn from
// seed, every one joining through the first as cluster.Start does, and
// polls the oracle ring. It returns the stabilize rounds per node that
// ran after the last join until every successor matched the oracle,
// and — when full is set — until the whole oracle (successor,
// predecessor and fingers) held. It fails tb when either does not happen within
// coldLimit.
func coldStart(tb testing.TB, seed int64, full bool) (succRounds, fullRounds float64) {
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
	sched := &stabilizeCounter{Scheduler: batch}
	nw := memnet.New(seed)
	defer nw.CloseAll()

	c, err := cluster.Start(space, nw, ids, func(_ int, cfg *node.Config) {
		cfg.StabilizeEvery = coldStabilize
		cfg.FixFingersEvery = coldFixFingers
		cfg.FixFingersBatch = coldFingerBatch
		cfg.Scheduler = sched
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	ring := c.Ring()
	next := make(map[id.ID]id.ID, len(ring))
	for i, x := range ring {
		next[x] = ring[(i+1)%len(ring)]
	}
	joined := sched.runs.Load()
	rounds := func() float64 { return float64(sched.runs.Load()-joined) / coldNodes }

	wrong := len(ring)
	for deadline := time.Now().Add(coldLimit); ; time.Sleep(time.Millisecond) {
		if succRounds == 0 {
			wrong = 0
			for _, n := range c.Nodes {
				if n.Successor().ID != next[n.ID()] {
					wrong++
				}
			}
			if wrong == 0 {
				succRounds = rounds()
			}
		}
		if succRounds > 0 && (!full || cluster.CheckChordConverged(space, c.Nodes) == nil) {
			if full {
				fullRounds = rounds()
			}
			return succRounds, fullRounds
		}
		if time.Now().After(deadline) {
			tb.Fatalf("seed %d: not converged after %v (%d wrong successors, %v)",
				seed, coldLimit, wrong, cluster.CheckChordConverged(space, c.Nodes))
		}
	}
}

// coldStartMaxRounds bounds the cold start of coldNodes nodes that all
// joined through one node while it was still a ring of one, in
// stabilize rounds per node after the last join. When get-pred named
// only the predecessor, the correct chain grew by about one node per
// round, and every successor was right after 33–62 rounds (seeds 1–10,
// with and without the race detector). With the notifier hints it takes
// 1–4, and up to 10 under the race detector, where joins overlap the
// first rounds and a late joiner walks back from a far successor.
const coldStartMaxRounds = 15

// TestChordColdStartSuccessorsConverge: a 64-node overlay whose nodes
// all joined through one node has every successor right within
// coldStartMaxRounds stabilize rounds per node.
func TestChordColdStartSuccessorsConverge(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rounds, _ := coldStart(t, seed, false)
		t.Logf("seed %d: successors right after %.1f stabilize rounds per node", seed, rounds)
		if rounds > coldStartMaxRounds {
			t.Errorf("seed %d: successors right after %.1f stabilize rounds per node, want at most %d",
				seed, rounds, coldStartMaxRounds)
		}
	}
}

// BenchmarkStabilizeColdStart times one cold start of the repo
// benchmark's chord overlay up to the full oracle (ns/op: the wall time
// of one cold start, boot and close included) and reports the
// stabilize rounds per node until the successors were right
// (succ-rounds/op) and until the whole oracle held (rounds/op).
func BenchmarkStabilizeColdStart(b *testing.B) {
	var succ, full float64
	for i := 0; i < b.N; i++ {
		s, f := coldStart(b, int64(i+1), true)
		succ += s
		full += f
	}
	b.ReportMetric(succ/float64(b.N), "succ-rounds/op")
	b.ReportMetric(full/float64(b.N), "rounds/op")
}
