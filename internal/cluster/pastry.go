package cluster

import (
	"fmt"
	"time"

	"peercache/internal/id"
	"peercache/internal/node"
	"peercache/internal/node/pastryring"
	"peercache/internal/wire"
)

// ExpectedLeaves computes the converged leaf-set sides of x over the
// sorted ring: up to half members walking clockwise and up to half
// walking counter-clockwise, nearest first — the oracle pastryring must
// converge to, the live analogue of internal/pastry's simulator state.
func ExpectedLeaves(ring []id.ID, x id.ID, half int) (cw, ccw []id.ID) {
	i := 0
	for ; i < len(ring); i++ {
		if ring[i] == x {
			break
		}
	}
	n := len(ring)
	for j := 1; j <= half && j < n; j++ {
		cw = append(cw, ring[(i+j)%n])
	}
	for j := 1; j <= half && j < n; j++ {
		ccw = append(ccw, ring[(i+n-j)%n])
	}
	return cw, ccw
}

// CoverableRows returns the prefix-table row indices x can possibly
// populate: row l is coverable iff some other member shares exactly l
// leading bits with x. A converged table fills exactly these.
func CoverableRows(space id.Space, ring []id.ID, x id.ID) map[uint]bool {
	out := make(map[uint]bool)
	for _, y := range ring {
		if y != x {
			out[space.CommonPrefixLen(x, y)] = true
		}
	}
	return out
}

// OwnerPastry returns the member responsible for key under Pastry's
// rule: the one numerically closest on the circle, an equidistant pair
// resolved toward the predecessor side, as pastryring resolves it.
func OwnerPastry(space id.Space, members []id.ID, key id.ID) id.ID {
	best := members[0]
	for _, x := range members[1:] {
		dx, db := min(space.Gap(x, key), space.Gap(key, x)), min(space.Gap(best, key), space.Gap(key, best))
		if dx < db || (dx == db && space.Gap(x, key) < space.Gap(best, key)) {
			best = x
		}
	}
	return best
}

// CheckPastryConverged is the Pastry convergence oracle as a pure,
// single-shot check over an arbitrary node list: every node's leaf-set
// sides must equal the ideal ring's and its populated prefix-table row
// set must equal the coverable-row oracle (each entry a live member in
// the right row). The nodes must have been started with pastryring.New
// and half as their SuccessorListLen. It returns the first mismatch,
// nil when converged. WaitConvergedPastry polls it; harnesses with
// their own clock (internal/soak) call it directly.
func CheckPastryConverged(space id.Space, nodes []*node.Node, half int) error {
	ring := RingOf(nodes)
	member := make(map[id.ID]bool, len(ring))
	for _, x := range ring {
		member[x] = true
	}
	for _, n := range nodes {
		pr, ok := n.Ring().(*pastryring.Ring)
		if !ok {
			return fmt.Errorf("node %d is not a pastryring node", n.ID())
		}
		wantCW, wantCCW := ExpectedLeaves(ring, n.ID(), half)
		cw, ccw := pr.Leaves()
		if err := matchSide("cw", n.ID(), wantCW, cw); err != nil {
			return err
		}
		if err := matchSide("ccw", n.ID(), wantCCW, ccw); err != nil {
			return err
		}
		coverable := CoverableRows(space, ring, n.ID())
		rows := pr.Rows()
		if len(rows) != len(coverable) {
			return fmt.Errorf("node %d has %d rows, want %d", n.ID(), len(rows), len(coverable))
		}
		for l, e := range rows {
			if !coverable[l] {
				return fmt.Errorf("node %d row %d populated but not coverable", n.ID(), l)
			}
			if !member[e.ID] {
				return fmt.Errorf("node %d row %d holds non-member %d", n.ID(), l, e.ID)
			}
			if got := space.CommonPrefixLen(n.ID(), e.ID); got != l {
				return fmt.Errorf("node %d row %d holds %d with prefix %d", n.ID(), l, e.ID, got)
			}
		}
	}
	return nil
}

// WaitConvergedPastry polls CheckPastryConverged until every node's
// leaf sets and prefix rows match the oracle, or the timeout passes,
// in which case it returns the last mismatch.
func (c *Cluster) WaitConvergedPastry(half int, timeout time.Duration) error {
	var last error
	for end := time.Now().Add(timeout); time.Now().Before(end); {
		if last = CheckPastryConverged(c.Space, c.Nodes, half); last == nil {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("cluster: pastry not converged after %v: %w", timeout, last)
}

// matchSide compares one leaf-set side against its oracle, in order.
func matchSide(side string, x id.ID, want []id.ID, got []wire.Contact) error {
	if len(got) != len(want) {
		return fmt.Errorf("node %d %s leaves %d, want %d", x, side, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i] {
			return fmt.Errorf("node %d %s leaf %d is %d, want %d", x, side, i, got[i].ID, want[i])
		}
	}
	return nil
}
