package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"peercache/internal/id"
	"peercache/internal/pastry"
	"peercache/internal/randx"
)

// The Pastry simulator's oracle stabilization (internal/pastry, binary
// digits, leaf half h per side) builds exactly the state the live
// pastryring converges to — ExpectedLeaves and CoverableRows, the
// oracle CheckPastryConverged holds every live node to. So the figure
// harness's oracular tables are the live protocol's fixed point.

// oracleNet builds the simulator over ids with leaf half half and
// stabilizes every node from global membership.
func oracleNet(t *testing.T, space id.Space, ids []uint64, half int) *pastry.Network {
	t.Helper()
	nw := pastry.New(pastry.Config{Space: space, DigitBits: 1, LeafSetSize: 2 * half})
	for _, x := range ids {
		if _, err := nw.AddNode(id.ID(x), pastry.Coord{}); err != nil {
			t.Fatal(err)
		}
	}
	nw.StabilizeAll()
	return nw
}

// randomMembership draws n distinct ids of a 16-bit space, sorted.
func randomMembership(rng *rand.Rand, n int) ([]uint64, []id.ID) {
	ids := randx.UniqueIDs(rng, n, 1<<16)
	ring := make([]id.ID, len(ids))
	for i, x := range ids {
		ring[i] = id.ID(x)
	}
	slices.Sort(ring)
	return ids, ring
}

// The oracle's leaf set of every node is ExpectedLeaves: the clockwise
// side then the counter-clockwise side, nearest first, over memberships
// from two nodes (where both sides hold the same peer) to sixty.
func TestPastryOracleLeavesMatchExpected(t *testing.T) {
	space := id.NewSpace(16)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		half := 1 + rng.Intn(4)
		ids, ring := randomMembership(rng, 2+rng.Intn(59))
		nw := oracleNet(t, space, ids, half)
		for _, x := range ring {
			cw, ccw := ExpectedLeaves(ring, x, half)
			if got, want := nw.Node(x).Leaf(), append(cw, ccw...); !slices.Equal(got, want) {
				t.Fatalf("seed %d half %d node %d: oracle leaves %v, expected %v", seed, half, x, got, want)
			}
		}
	}
}

// The oracle's populated prefix rows of every node are exactly
// CoverableRows, each holding a member in the right row.
func TestPastryOracleRowsMatchCoverable(t *testing.T) {
	space := id.NewSpace(16)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids, ring := randomMembership(rng, 2+rng.Intn(59))
		nw := oracleNet(t, space, ids, 4)
		for _, x := range ring {
			coverable := CoverableRows(space, ring, x)
			rows := make(map[uint]bool)
			for _, e := range nw.Node(x).TableEntries() {
				l := space.CommonPrefixLen(x, e)
				if rows[l] {
					t.Fatalf("seed %d node %d: two entries in row %d", seed, x, l)
				}
				if _, ok := slices.BinarySearch(ring, e); !ok {
					t.Fatalf("seed %d node %d: row %d holds non-member %d", seed, x, l, e)
				}
				rows[l] = true
			}
			if len(rows) != len(coverable) {
				t.Fatalf("seed %d node %d: oracle rows %v, coverable %v", seed, x, rows, coverable)
			}
			for l := range coverable {
				if !rows[l] {
					t.Fatalf("seed %d node %d: coverable row %d empty in the oracle", seed, x, l)
				}
			}
		}
	}
}

// OwnerPastry agrees with the Pastry simulator's owner on random
// memberships and keys, and breaks an equidistant pair toward the
// predecessor side, as pastryring does.
func TestOwnerPastryMatchesSimulator(t *testing.T) {
	space := id.NewSpace(16)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids, ring := randomMembership(rng, 1+rng.Intn(60))
		nw := oracleNet(t, space, ids, 2)
		for q := 0; q < 200; q++ {
			key := id.ID(rng.Intn(1 << 16))
			if want, _ := nw.Owner(key); OwnerPastry(space, ring, key) != want {
				t.Fatalf("seed %d key %d: OwnerPastry %d, simulator %d", seed, key, OwnerPastry(space, ring, key), want)
			}
		}
	}
	ring := []id.ID{10, 20, 65000}
	for _, c := range []struct{ key, want id.ID }{{15, 10}, {65273, 65000}, {65530, 10}} {
		if got := OwnerPastry(space, ring, c.key); got != c.want {
			t.Errorf("OwnerPastry(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}
