package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default); NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// subWindows is how many equal slices of the measured window a latency
// quantile is taken over.
const subWindows = 10

// windowedQuantile is the median over the window's equal slices of each
// slice's q-quantile: a burst of host noise moves one slice, not the
// result. at[i] is when sample i was due, in seconds into the window.
func windowedQuantile(xs, at []float64, span float64, q float64) float64 {
	slices := make([][]float64, subWindows)
	for i, x := range xs {
		k := int(at[i] / span * subWindows)
		if k >= 0 && k < subWindows {
			slices[k] = append(slices[k], x)
		}
	}
	var qs []float64
	for _, s := range slices {
		if len(s) > 0 {
			qs = append(qs, quantile(s, q))
		}
	}
	return median(qs)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSelf is this process's user plus system CPU time in seconds.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
