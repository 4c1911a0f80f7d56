//go:build !race

package node

const raceDetector = false
