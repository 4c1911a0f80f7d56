package main

import (
	"math"
	"sort"

	"peercache/internal/stats"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): p99 of a window therefore needs 1000 samples.
const minBeyond = 10

// supportedPercentile returns the highest percentile, capped at want,
// that still has minBeyond of n samples beyond it.
func supportedPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	if p > want {
		p = want
	}
	if p < 0 {
		p = 0
	}
	return p
}

// percentile is the nearest-rank percentile p (0..100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of xs, the mean of the two middle values when len is even; 0
// for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, 50)
}

// interval is a half-open time span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length the intervals cover, counting overlaps
// once. ivs is sorted in place.
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curEnd int64
	first := true
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		switch {
		case first || iv.start > curEnd:
			total += iv.end - iv.start
			curEnd = iv.end
			first = false
		case iv.end > curEnd:
			total += iv.end - curEnd
			curEnd = iv.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover (choosing-metrics §4). Children are clipped to the span.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		clipped = append(clipped, c)
	}
	return span.end - span.start - unionLen(clipped)
}

// iqr is the distance between the first and third quartile of xs, as
// Python's statistics.quantiles(xs, n=4) places them (the exclusive
// method); it needs at least two values.
func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return quartile(3) - quartile(1)
}
