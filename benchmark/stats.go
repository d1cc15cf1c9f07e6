package main

import (
	"math"
	"sort"
)

// median is the mean of the two middle samples for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLatency estimates a high percentile robustly: it cuts xs, in arrival
// order, into consecutive windows of `window` samples and returns the median
// of the windows' maxima. The maximum of 20 samples sits at the 95th
// percentile on average and that of 100 at the 99th, so window 20 stands for
// p95 and 100 for p99. Unlike the nearest-rank percentile of a few dozen
// samples — which is one of its two or three largest values — it ignores a
// burst of interference that spoils fewer than half the windows. A trailing
// partial window counts when it is at least half full and joins the one
// before it otherwise.
func tailLatency(xs []float64, window int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var maxima []float64
	for at := 0; at < len(xs); at += window {
		end := min(at+window, len(xs))
		if len(xs)-end < (window+1)/2 {
			end = len(xs)
		}
		w := xs[at]
		for _, x := range xs[at:end] {
			w = max(w, x)
		}
		maxima = append(maxima, w)
		if end == len(xs) {
			break
		}
	}
	return median(maxima)
}
