package main

import (
	"sort"
)

// pct returns the nearest-rank q-quantile (0 < q <= 1) of xs, which it
// sorts in place. Empty input gives 0.
func pct(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// sample is one latency observation stamped with when its operation was
// due, so a run can be cut into time windows.
type sample struct {
	due int64
	lat int64
}

// minPerWindow is the fewest samples a window needs for its p99 to have
// at least ten samples beyond it.
const minPerWindow = 1000

// latency summarises samples as the overall median and a windowed p99:
// the run is cut into equal time windows of at least minPerWindow
// samples each (at most nine), and the p99 reported is the median of the
// windows' p99s. One stalled window — a GC cycle, a neighbour's burst on
// the shared machine — then moves the figure by one rank, not by its full
// weight. Values are in microseconds.
func latency(ss []sample) (p50, p99 float64) {
	if len(ss) == 0 {
		return 0, 0
	}
	all := make([]int64, len(ss))
	for i, s := range ss {
		all[i] = s.lat
	}
	p50 = float64(pct(all, 0.50)) / 1e3
	w := len(ss) / minPerWindow
	if w > 9 {
		w = 9
	}
	if w < 1 {
		w = 1
	}
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].due < sorted[j].due })
	p99s := make([]float64, 0, w)
	for k := 0; k < w; k++ {
		part := sorted[k*len(sorted)/w : (k+1)*len(sorted)/w]
		xs := make([]int64, len(part))
		for i, s := range part {
			xs[i] = s.lat
		}
		p99s = append(p99s, float64(pct(xs, 0.99))/1e3)
	}
	sort.Float64s(p99s)
	return p50, median(p99s)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
