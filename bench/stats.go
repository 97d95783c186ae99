package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of vals,
// which need not be sorted; 0 for an empty slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of vals (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// waves is the number of latency waves a query's calls need: each
// destination admits perDest calls at once and the pump total calls at
// once, so the slowest of the two constraints sets the count.
func waves(callsByDest map[string]int, perDest, total int) int {
	w, sum := 0, 0
	for _, n := range callsByDest {
		sum += n
		if d := ceilDiv(n, perDest); d > w {
			w = d
		}
	}
	if t := ceilDiv(sum, total); t > w {
		w = t
	}
	return w
}

// floorMS is the critical-path floor of a query: ceil(calls/limit)
// latency waves, in milliseconds.
func floorMS(callsByDest map[string]int, perDest, total int, latency time.Duration) float64 {
	return float64(waves(callsByDest, perDest, total)) * ms(latency)
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// relErr is |got-want| / |want|; when want is 0 it is 0 for an exact
// match and 1 otherwise.
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(got-want) / math.Abs(want)
}
