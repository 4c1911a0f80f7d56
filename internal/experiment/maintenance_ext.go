package experiment

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"peercache/internal/cluster"
	"peercache/internal/id"
	"peercache/internal/memnet"
	"peercache/internal/node"
	"peercache/internal/randx"
	"peercache/internal/stats"
)

// ExtMaintenance quantifies the cost side of the paper's routing-table
// size trade-off (Section I): auxiliary neighbors must be pinged like
// core entries, so maintenance traffic grows linearly with k while the
// lookup gain saturates. For each auxiliary budget it boots a live
// chordring overlay over memnet, converges it to the oracle ring, lets
// every node select k auxiliary neighbors from its own lookups, and
// meters the outbound datagrams per node over an idle window of
// virtual time, pairing each budget with the stable-mode hop reduction
// it buys.
func ExtMaintenance(scale Scale) (Table, error) {
	n := scale.fixedN()
	if n > 256 {
		n = 256 // one process drives every node's maintenance
	}
	bits := scale.Bits
	if bits == 0 {
		bits = 32
	}
	space := id.NewSpace(bits)
	logn := Log2(n)
	ids := randx.UniqueIDs(randx.New(randx.DeriveSeed(scale.Seed, "ext-maint-nodes")), n, space.Size())

	t := Table{
		Title:   fmt.Sprintf("Extension — maintenance traffic vs lookup gain (live chordring, n = %d)", n),
		Columns: []string{"k", "maint msgs/node/s", "vs k=0", "stable hop reduction"},
	}

	var baseRate float64
	for _, factor := range []int{0, 1, 2, 3} {
		k := factor * logn
		rate, installed, err := liveMaintenance(space, ids, k, scale.Seed)
		if err != nil {
			return Table{}, err
		}
		for i, got := range installed {
			if got != k {
				return Table{}, fmt.Errorf("maintenance: node %d installed %d aux entries, want %d", ids[i], got, k)
			}
		}
		if factor == 0 {
			baseRate = rate
		}

		reduction := "0.0% (no aux)"
		if k > 0 {
			res, err := RunStable(StableConfig{
				Protocol:     Chord,
				N:            n,
				Bits:         bits,
				K:            k,
				ItemsPerNode: scale.ItemsPerNode,
				NumRankings:  5,
				Seed:         scale.Seed,
			})
			if err != nil {
				return Table{}, err
			}
			reduction = pct(stats.PercentReduction(res.PerScheme[CoreOnly].AvgHops, res.PerScheme[Optimal].AvgHops))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d·log n = %d", factor, k),
			fmt.Sprintf("%.3f", rate),
			fmt.Sprintf("%+.0f%%", 100*(rate-baseRate)/baseRate),
			reduction,
		})
	}
	return t, nil
}

// Parameters of one live maintenance measurement.
const (
	maintLookupsPerNode = 200               // uniform-key lookups feeding each node's window
	maintConvergeLimit  = 120 * time.Second // virtual time allowed to reach the oracle ring
	maintWindow         = time.Second       // virtual idle window the datagrams are counted over
)

// liveMaintenance boots a chordring overlay of ids with aux budget k,
// converges it, installs each node's aux set from maintLookupsPerNode
// uniform-key lookups, and returns the outbound datagrams per node per
// virtual second over an idle window, plus how many aux entries each
// node installed (in ids order).
func liveMaintenance(space id.Space, ids []uint64, k int, seed int64) (float64, []int, error) {
	clk := &virtualClock{}
	cl, err := cluster.Start(space, memnet.New(seed), ids, func(_ int, cfg *node.Config) {
		cfg.AuxCount = k
		cfg.ReplicateEvery = -1 // no items: only routing maintenance runs
		cfg.Scheduler = clk
	})
	if err != nil {
		return 0, nil, err
	}
	defer cl.Close()
	for {
		err := cluster.CheckChordConverged(space, cl.Nodes)
		if err == nil {
			break
		}
		if clk.now >= maintConvergeLimit {
			return 0, nil, fmt.Errorf("maintenance: not converged after %v virtual: %w", maintConvergeLimit, err)
		}
		clk.advance(100 * time.Millisecond)
	}

	// The nodes look up concurrently, each drawing its keys from its own
	// stream, so the windows, and with them the aux sets, follow from
	// the seed.
	keySeed := randx.DeriveSeed(seed, "ext-maint-keys")
	installed := make([]int, len(cl.Nodes))
	errs := make([]error, len(cl.Nodes))
	var wg sync.WaitGroup
	for i, nd := range cl.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := randx.New(keySeed + int64(i))
			for q := 0; q < maintLookupsPerNode; q++ {
				if _, _, err := nd.Lookup(id.ID(rng.Uint64() & (space.Size() - 1))); err != nil {
					errs[i] = fmt.Errorf("maintenance: lookup from node %d: %w", nd.ID(), err)
					return
				}
			}
			installed[i], errs[i] = nd.RecomputeAux()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, nil, err
	}

	sent := func() (total uint64) {
		for _, nd := range cl.Nodes {
			total += nd.Metrics().DatagramsOut
		}
		return total
	}
	before := sent()
	clk.advance(maintWindow)
	rate := float64(sent()-before) / maintWindow.Seconds() / float64(len(cl.Nodes))
	return rate, installed, nil
}

// virtualClock is a node.Scheduler on virtual time: jobs run only
// inside advance, one after another on its caller's goroutine, each
// first at half its period and then once per period. Maintenance cost
// is then a property of the protocol and not of how fast the host
// can run hundreds of nodes' tickers on wall time.
type virtualClock struct {
	mu   sync.Mutex // guards jobs
	now  time.Duration
	jobs []*virtualJob
}

type virtualJob struct {
	period, next time.Duration
	fn           func()
	cancelled    atomic.Bool
}

// virtualTick is advance's step; every period the runtime is given
// here is at least one tick.
const virtualTick = 5 * time.Millisecond

func (c *virtualClock) Every(period time.Duration, fn func()) node.JobHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := &virtualJob{period: period, next: c.now + period/2, fn: fn}
	c.jobs = append(c.jobs, j)
	return j
}

// advance steps virtual time by d, running the jobs due at each tick.
func (c *virtualClock) advance(d time.Duration) {
	for end := c.now + d; c.now < end; {
		c.now += virtualTick
		c.mu.Lock()
		jobs := c.jobs
		c.mu.Unlock()
		for _, j := range jobs {
			if j.next <= c.now && !j.cancelled.Load() {
				j.fn()
				j.next += j.period
			}
		}
	}
}

func (j *virtualJob) Cancel() { j.cancelled.Store(true) }

// Wait returns at once: a job only runs inside advance, and nodes are
// closed between advances.
func (j *virtualJob) Wait() {}
