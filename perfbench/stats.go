package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// runner reports it: p99 needs at least 1000 samples.
const minTail = 10

// quantile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule. An empty sample reads 0: a layer the workload never
// enters has no time in it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailSupported reports whether n samples leave at least minTail beyond
// the q-quantile.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs (nearest rank); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp divides a count by the op base, reading 0 when there were no ops.
func perOp(count float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return count / float64(ops)
}

// latencyPercentile reports the q-quantile of a latency sample in which
// failed ops entered as +Inf, refusing a percentile the sample size
// cannot support.
func latencyPercentile(sorted []float64, q float64) (float64, error) {
	if !tailSupported(len(sorted), q) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d ops",
			q*100, minTail, len(sorted))
	}
	return quantile(sorted, q), nil
}
