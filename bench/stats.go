package main

import (
	"math"
	"regexp"
	"sort"
)

// tailRank is how many samples must lie beyond the reported tail: the tail is
// the highest percentile that still has at least ten samples above it, so one
// or two outliers cannot move it.
const tailRank = 11

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the two middle values for an
// even count), 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailBlock is the block size of the tail statistic.
const tailBlock = 200

// tail returns a run's tail latency: the op samples, in op order, are cut
// into consecutive blocks of tailBlock (the last block takes the
// remainder), and the median of the blocks' 11th-largest samples — each
// block's p94.5 — is returned. A run with fewer than two blocks' worth of
// ops is one block. Taken over a whole long run the 11th-largest sample
// sits beyond p99 and moved by up to 20% between seeds on the reference
// host; the median over blocks moved by under 10%.
func tail(xs []float64) float64 {
	blocks := len(xs) / tailBlock
	if blocks < 2 {
		return blockTail(xs)
	}
	per := make([]float64, blocks)
	for b := range per {
		hi := (b + 1) * tailBlock
		if b == blocks-1 {
			hi = len(xs)
		}
		per[b] = blockTail(xs[b*tailBlock : hi])
	}
	return median(per)
}

// blockTail returns the 11th-largest sample. With ten or fewer samples no
// percentile has ten samples beyond it, and the largest sample is returned.
func blockTail(xs []float64) float64 {
	s := sortedCopy(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n < tailRank:
		return s[n-1]
	default:
		return s[n-tailRank]
	}
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio returns num/den, 0 when den is 0, so no metric is ever NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// interval is a half-open time interval in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen returns how much of [lo, hi) the intervals cover together;
// overlapping intervals count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = math.MinInt64
	for _, iv := range clipped {
		switch {
		case iv.lo >= end:
			total += iv.hi - iv.lo
			end = iv.hi
		case iv.hi > end:
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's duration minus the union of its children's intervals.
func selfTime(span interval, children []interval) int64 {
	return span.hi - span.lo - unionLen(children, span.lo, span.hi)
}

// metricName is the grammar every emitted metric name follows: it starts
// with a letter or digit and uses at most 64 letters, digits, '_', '.' and
// '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
