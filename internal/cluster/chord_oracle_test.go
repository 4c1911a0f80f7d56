package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"peercache/internal/chord"
	"peercache/internal/id"
)

// The Chord simulator's oracle stabilization (internal/chord) builds
// exactly the state the live chordring converges to: ExpectedFingers,
// the oracle CheckChordConverged holds every live node to, and the next
// SuccessorListLen members clockwise. So the figure harness's oracular
// tables are the live protocol's fixed point.
func TestChordOracleFingersMatchExpected(t *testing.T) {
	space := id.NewSpace(16)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		succLen := 1 + rng.Intn(8)
		ids, ring := randomMembership(rng, 2+rng.Intn(199))
		nw := chord.New(chord.Config{Space: space, SuccessorListLen: succLen})
		for _, x := range ids {
			if _, err := nw.AddNode(id.ID(x)); err != nil {
				t.Fatal(err)
			}
		}
		nw.StabilizeAll()
		for i, x := range ring {
			if got, want := nw.Node(x).Fingers(), ExpectedFingers(space, ring, x); !slices.Equal(got, want) {
				t.Fatalf("seed %d node %d: oracle fingers %v, expected %v", seed, x, got, want)
			}
			var want []id.ID
			for j := 1; j <= succLen && j < len(ring); j++ {
				want = append(want, ring[(i+j)%len(ring)])
			}
			if got := nw.Node(x).Successors(); !slices.Equal(got, want) {
				t.Fatalf("seed %d node %d: oracle successors %v, expected %v (list length %d)", seed, x, got, want, succLen)
			}
		}
	}
}
