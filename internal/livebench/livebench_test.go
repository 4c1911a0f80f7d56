package livebench

import (
	"testing"
	"time"
)

// settle returns once the count holds still for a whole step, not
// after a fixed number of steps, and gives up at its bound.
func TestSettleWaitsForQuietCount(t *testing.T) {
	seq := []uint64{0, 5, 9, 9, 9}
	calls := 0
	count := func() uint64 {
		v := seq[min(calls, len(seq)-1)]
		calls++
		return v
	}
	if !settle(time.Millisecond, 8, count) {
		t.Fatal("settle gave up on a count that stopped rising")
	}
	if calls != 4 {
		t.Fatalf("settle read the count %d times, want 4 (stop at the first quiet step)", calls)
	}

	rising := uint64(0)
	if settle(time.Millisecond, 3, func() uint64 { rising++; return rising }) {
		t.Fatal("settle reported quiet on a count that never stopped rising")
	}
	if rising != 4 {
		t.Fatalf("settle read a rising count %d times, want 4 (bound 3)", rising)
	}
}

// On a small preloaded overlay, the anti-entropy window opens only
// after every first replica has shipped: no diff key, the transfer of
// a key a replica target lacked, falls inside it.
func TestAntiEntropyWindowShipsNoFirstReplicas(t *testing.T) {
	o, err := Options{Proto: "chord", N: 16, Seed: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	ov, err := boot(o)
	if err != nil {
		t.Fatal(err)
	}
	defer ov.close()
	if err := ov.converge(); err != nil {
		t.Fatal(err)
	}
	if err := preloadPhase(ov); err != nil {
		t.Fatal(err)
	}
	var r Result
	if shipped := antiEntropyPhase(ov, &r); shipped != 0 {
		t.Fatalf("%d diff keys shipped inside the anti-entropy window, want 0", shipped)
	}
	if r.ReplReduction <= 0 || r.ReplFullPushBytesPerSec <= 0 {
		t.Fatalf("window priced nothing: reduction %.2f, full push %.0f B/s", r.ReplReduction, r.ReplFullPushBytesPerSec)
	}
}
