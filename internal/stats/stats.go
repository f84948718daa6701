// Package stats provides the streaming statistics used by the experiment
// harness: Welford mean/variance accumulators, simple rate counters and
// fixed-bin histograms. Everything is allocation-free after construction so
// accumulators can sit on the simulator's hot path.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// AddN folds the same observation n times (cheap bulk insertion for the
// "accurate jobs contribute zero error" convention).
func (a *Accumulator) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the running mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the population variance (0 when fewer than 2 samples).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the population standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min and Max return observed extremes (0 when empty).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return 0
	}
	return a.min
}

// Max returns the largest observation (0 when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return 0
	}
	return a.max
}

// Sum returns n*mean, the total of all observations.
func (a *Accumulator) Sum() float64 { return a.mean * float64(a.n) }

// Merge folds another accumulator into this one (parallel Welford merge).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	mean := a.mean + delta*float64(b.n)/float64(n)
	m2 := a.m2 + b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n, a.mean, a.m2 = n, mean, m2
}

// String renders "mean±σ (n=N)".
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4g±%.4g (n=%d)", a.Mean(), a.StdDev(), a.n)
}

// Rate counts events against trials, e.g. deadline violations per job.
// The zero value is ready to use.
type Rate struct {
	Events int64
	Trials int64
}

// Hit records a trial that was an event.
func (r *Rate) Hit() { r.Events++; r.Trials++ }

// Miss records a trial that was not an event.
func (r *Rate) Miss() { r.Trials++ }

// Record records a trial whose event-ness is given.
func (r *Rate) Record(event bool) {
	if event {
		r.Hit()
	} else {
		r.Miss()
	}
}

// Fraction returns Events/Trials (0 when no trials).
func (r *Rate) Fraction() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Events) / float64(r.Trials)
}

// Percent returns the fraction scaled to percent.
func (r *Rate) Percent() float64 { return 100 * r.Fraction() }

// String renders "12.3% (41/333)".
func (r *Rate) String() string {
	return fmt.Sprintf("%.1f%% (%d/%d)", r.Percent(), r.Events, r.Trials)
}

// MeanOf returns the arithmetic mean of a slice (0 when empty).
func MeanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDevOf returns the population standard deviation of a slice.
func StdDevOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := MeanOf(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MedianOf returns the median of a slice (0 when empty). The input is not
// modified.
func MedianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
