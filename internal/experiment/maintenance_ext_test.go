package experiment

import (
	"strconv"
	"strings"
	"testing"

	"peercache/internal/id"
	"peercache/internal/randx"
)

func TestExtMaintenance(t *testing.T) {
	tb, err := ExtMaintenance(Scale{FixedN: 64, Bits: 16, ItemsPerNode: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	// Maintenance rate strictly increases with k.
	prev := -1.0
	for _, row := range tb.Rows {
		rate := parse(row[1])
		if rate <= prev {
			t.Errorf("maintenance rate not increasing: %.3f after %.3f", rate, prev)
		}
		prev = rate
	}
	// The k=0 row carries no reduction; the k>0 rows do.
	if !strings.Contains(tb.Rows[0][3], "no aux") {
		t.Errorf("k=0 reduction cell = %q", tb.Rows[0][3])
	}
	for _, row := range tb.Rows[1:] {
		v := parse(strings.TrimSuffix(row[3], "%"))
		if v <= 0 {
			t.Errorf("k=%s: non-positive reduction %q", row[0], row[3])
		}
	}
	// Every node installs exactly k aux entries, so each row prices
	// the budget it names.
	space := id.NewSpace(16)
	const k = 4
	_, installed, err := liveMaintenance(space, randx.UniqueIDs(randx.New(5), 24, space.Size()), k, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range installed {
		if got != k {
			t.Errorf("node %d installed %d aux entries, want %d", i, got, k)
		}
	}
}
