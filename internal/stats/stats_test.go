package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.StdDev() != 0 || a.N() != 0 || a.Min() != 0 || a.Max() != 0 {
		t.Error("zero-value accumulator should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", a.Mean())
	}
	if math.Abs(a.StdDev()-2) > 1e-12 {
		t.Errorf("StdDev = %g, want 2 (classic Wikipedia example)", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %g/%g", a.Min(), a.Max())
	}
	if math.Abs(a.Sum()-40) > 1e-9 {
		t.Errorf("Sum = %g, want 40", a.Sum())
	}
	if s := a.String(); !strings.Contains(s, "n=8") {
		t.Errorf("String = %q", s)
	}
}

func TestAccumulatorSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 || a.Mean() != 3.5 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Errorf("single sample stats wrong: %+v", a)
	}
}

func TestAddN(t *testing.T) {
	var a, b Accumulator
	a.AddN(0, 3)
	a.Add(4)
	for _, x := range []float64{0, 0, 0, 4} {
		b.Add(x)
	}
	if math.Abs(a.Mean()-b.Mean()) > 1e-12 || math.Abs(a.StdDev()-b.StdDev()) > 1e-12 {
		t.Errorf("AddN mismatch: %v vs %v", a, b)
	}
}

func TestMerge(t *testing.T) {
	var a, b, whole Accumulator
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d", a.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged mean = %g, want %g", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged variance = %g, want %g", a.Variance(), whole.Variance())
	}
	if a.Min() != 1 || a.Max() != 10 {
		t.Errorf("merged min/max = %g/%g", a.Min(), a.Max())
	}
	// Merging into empty copies; merging empty is a no-op.
	var empty Accumulator
	before := a
	a.Merge(&empty)
	if a != before {
		t.Error("merging empty changed the accumulator")
	}
	var c Accumulator
	c.Merge(&whole)
	if c.N() != whole.N() || c.Mean() != whole.Mean() {
		t.Error("merge into empty should copy")
	}
}

func TestRate(t *testing.T) {
	var r Rate
	if r.Fraction() != 0 {
		t.Error("empty rate should be 0")
	}
	r.Hit()
	r.Miss()
	r.Miss()
	r.Record(true)
	if r.Events != 2 || r.Trials != 4 {
		t.Errorf("rate = %d/%d", r.Events, r.Trials)
	}
	if math.Abs(r.Fraction()-0.5) > 1e-12 || math.Abs(r.Percent()-50) > 1e-12 {
		t.Errorf("fraction/percent = %g/%g", r.Fraction(), r.Percent())
	}
	if s := r.String(); !strings.Contains(s, "2/4") {
		t.Errorf("String = %q", s)
	}
}

func TestSliceHelpers(t *testing.T) {
	if MeanOf(nil) != 0 || StdDevOf(nil) != 0 || MedianOf(nil) != 0 {
		t.Error("empty-slice helpers should return 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if math.Abs(MeanOf(xs)-5) > 1e-12 {
		t.Errorf("MeanOf = %g", MeanOf(xs))
	}
	if math.Abs(StdDevOf(xs)-2) > 1e-12 {
		t.Errorf("StdDevOf = %g", StdDevOf(xs))
	}
	if MedianOf([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if MedianOf([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("even median wrong")
	}
	// MedianOf must not mutate its input.
	in := []float64{3, 1, 2}
	MedianOf(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("MedianOf mutated input")
	}
}

// Property: streaming accumulator matches the direct two-pass formulas.
func TestAccumulatorMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var a Accumulator
		for i, v := range raw {
			xs[i] = float64(v) / 7
			a.Add(xs[i])
		}
		return math.Abs(a.Mean()-MeanOf(xs)) < 1e-6 &&
			math.Abs(a.StdDev()-StdDevOf(xs)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merge of a random split equals the whole.
func TestMergeEqualsWholeProperty(t *testing.T) {
	f := func(raw []int16, cut uint8) bool {
		if len(raw) < 2 {
			return true
		}
		k := int(cut) % len(raw)
		var left, right, whole Accumulator
		for i, v := range raw {
			x := float64(v)
			whole.Add(x)
			if i < k {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(&right)
		closeRel := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		}
		return left.N() == whole.N() &&
			closeRel(left.Mean(), whole.Mean()) &&
			closeRel(left.Variance(), whole.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
