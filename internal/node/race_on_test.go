//go:build race

package node

// raceDetector reports whether the test binary runs under the race
// detector, which makes sync.Pool drop items at random: allocation
// ceilings that count on pooled records do not hold there.
const raceDetector = true
