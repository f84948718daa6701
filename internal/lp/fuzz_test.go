package lp

import (
	"fmt"
	"math"
	"testing"

	"nprt/internal/rng"
)

// vertexOracle solves a 2-variable LP (min c·x, a_k·x <= b_k, x >= 0) by
// enumerating all intersections of constraint boundary pairs (including the
// axes) and taking the best feasible vertex. For a bounded feasible region
// the LP optimum is attained at such a vertex, so this is an exact oracle.
func vertexOracle(c [2]float64, rows [][3]float64) (obj float64, feasible bool) {
	// Boundary lines: each row a1 x + a2 y = b, plus x = 0 and y = 0.
	lines := make([][3]float64, 0, len(rows)+2)
	lines = append(lines, rows...)
	lines = append(lines, [3]float64{1, 0, 0}, [3]float64{0, 1, 0})

	best := math.Inf(1)
	found := false
	feasibleAt := func(x, y float64) bool {
		if x < -1e-9 || y < -1e-9 {
			return false
		}
		for _, r := range rows {
			if r[0]*x+r[1]*y > r[2]+1e-7 {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			a1, b1, c1 := lines[i][0], lines[i][1], lines[i][2]
			a2, b2, c2 := lines[j][0], lines[j][1], lines[j][2]
			det := a1*b2 - a2*b1
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (c1*b2 - c2*b1) / det
			y := (a1*c2 - a2*c1) / det
			if feasibleAt(x, y) {
				v := c[0]*x + c[1]*y
				if v < best {
					best = v
					found = true
				}
			}
		}
	}
	return best, found
}

// vertexInstance draws a random bounded 2-variable LP (min c·x, rows
// a1 x + a2 y <= b, x >= 0) for the vertex-enumeration oracle.
func vertexInstance(r *rng.Stream) (c [2]float64, rows [][3]float64) {
	nRows := 1 + r.Intn(5)
	rows = make([][3]float64, 0, nRows+2)
	for k := 0; k < nRows; k++ {
		rows = append(rows, [3]float64{
			r.Float64()*4 - 1, // allow some negative coefficients
			r.Float64()*4 - 1,
			r.Float64() * 10,
		})
	}
	// Bounding box keeps every instance bounded.
	rows = append(rows, [3]float64{1, 0, 5 + r.Float64()*10})
	rows = append(rows, [3]float64{0, 1, 5 + r.Float64()*10})
	c = [2]float64{r.Float64()*4 - 2, r.Float64()*4 - 2}
	return c, rows
}

// vertexProblem spells a vertexInstance as a Problem.
func vertexProblem(c [2]float64, rows [][3]float64) *Problem {
	p := NewProblem(2)
	p.C = []float64{c[0], c[1]}
	for _, row := range rows {
		p.AddConstraint([]float64{row[0], row[1]}, LE, row[2], "")
	}
	return p
}

// TestSimplexMatchesVertexEnumeration fuzzes the simplex on random bounded
// 2-variable LPs against the geometric oracle.
func TestSimplexMatchesVertexEnumeration(t *testing.T) {
	r := rng.New(8675309)
	tested := 0
	for trial := 0; trial < 500; trial++ {
		c, rows := vertexInstance(r)
		want, feasible := vertexOracle(c, rows)
		sol, err := Solve(vertexProblem(c, rows))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status == Optimal {
				t.Fatalf("trial %d: simplex found %g on oracle-infeasible LP", trial, sol.Objective)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: simplex says %v, oracle found %g", trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: simplex %g != oracle %g", trial, sol.Objective, want)
		}
		// The reported point must satisfy every constraint.
		for k, row := range rows {
			if row[0]*sol.X[0]+row[1]*sol.X[1] > row[2]+1e-6 {
				t.Fatalf("trial %d: solution violates row %d", trial, k)
			}
		}
		tested++
	}
	if tested < 300 {
		t.Fatalf("only %d feasible instances exercised", tested)
	}
}

// plantedInstance draws a mixed LE/GE/EQ system with a known feasible
// point, returned alongside, inside a row-encoded box.
func plantedInstance(r *rng.Stream) (*Problem, []float64) {
	n := 2 + r.Intn(3)
	point := make([]float64, n)
	for i := range point {
		point[i] = r.Float64() * 5
	}
	p := NewProblem(n)
	for i := range p.C {
		p.C[i] = r.Float64()*4 - 2
	}
	nRows := 1 + r.Intn(4)
	for k := 0; k < nRows; k++ {
		coef := make([]float64, n)
		v := 0.0
		for i := range coef {
			coef[i] = r.Float64()*2 - 0.5
			v += coef[i] * point[i]
		}
		switch r.Intn(3) {
		case 0:
			p.AddConstraint(coef, LE, v+r.Float64(), "")
		case 1:
			p.AddConstraint(coef, GE, v-r.Float64(), "")
		default:
			p.AddConstraint(coef, EQ, v, "")
		}
	}
	// Bound the box so minimization is never unbounded.
	for i := 0; i < n; i++ {
		p.AddBound(i, LE, 20, "")
	}
	return p, point
}

// TestSimplexRandomEqualities fuzzes mixed LE/GE/EQ systems where a known
// feasible point is planted, so feasibility is guaranteed and the optimum
// must not exceed the planted point's objective.
func TestSimplexRandomEqualities(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 300; trial++ {
		p, point := plantedInstance(r)
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v with a planted feasible point", trial, sol.Status)
		}
		plantedObj := 0.0
		for i := range point {
			plantedObj += p.C[i] * point[i]
		}
		if sol.Objective > plantedObj+1e-6 {
			t.Fatalf("trial %d: optimum %g worse than planted point %g", trial, sol.Objective, plantedObj)
		}
	}
}

// mixedInstance draws a random LP shaped like the scheduling models at a
// small scale: sparse rows of every sense, some stated shorter than
// NumVars, over box-bounded variables whose lower bounds — negative, zero
// or positive, sometimes fixed, sometimes with no upper bound — shift the
// RHS. Rows pass through a planted point in the box, so most draws are
// feasible, and with mixed-sign coefficients EQ and GE rows regularly have
// a negative shifted RHS and are negated before phase 1. Every eighth row
// or so is shifted off the point, and unbounded draws are kept.
func mixedInstance(r *rng.Stream) *Problem {
	n := 1 + r.Intn(10)
	p := NewProblem(n)
	point := make([]float64, n)
	for j := range p.C {
		p.C[j] = r.Float64()*6 - 2
		lo := float64(r.Intn(9) - 4)
		switch r.Intn(4) {
		case 0:
			p.SetBounds(j, lo, lo)
			point[j] = lo
		case 1:
			p.SetBounds(j, lo, math.Inf(1))
			point[j] = lo + r.Float64()*5
		default:
			up := lo + r.Float64()*6
			p.SetBounds(j, lo, up)
			point[j] = lo + r.Float64()*(up-lo)
		}
	}
	for i, rows := 0, r.Intn(12); i < rows; i++ {
		coef := make([]float64, r.Intn(n+1))
		v := 0.0
		for j := range coef {
			switch r.Intn(3) {
			case 0:
				coef[j] = r.Float64()*8 - 4
			case 1:
				coef[j] = float64(r.Intn(5) - 2)
			}
			v += coef[j] * point[j]
		}
		if r.Intn(8) == 0 {
			v += r.Float64()*4 - 2
		}
		sense := Sense(r.Intn(3))
		switch sense {
		case LE:
			v += r.Float64()
		case GE:
			v -= r.Float64()
		}
		p.Rows = append(p.Rows, Constraint{Coef: coef, Sense: sense, RHS: v})
	}
	return p
}

// tightened returns a copy of p's bounds with one variable's range cut the
// way a branch-and-bound child cuts it: a raised lower bound or a lowered
// upper bound, possibly emptying the box.
func tightened(r *rng.Stream, p *Problem) (lo, up []float64) {
	lo = append([]float64(nil), p.Lo...)
	up = append([]float64(nil), p.Up...)
	j := r.Intn(p.NumVars)
	if r.Intn(2) == 0 {
		lo[j] += float64(1 + r.Intn(2))
	} else {
		up[j] = lo[j] + float64(r.Intn(3))
	}
	return lo, up
}

// sameAsReference reports how got differs from the reference kernel's
// result, or "" when both took the same pivots to bit-identical answers.
func sameAsReference(got, want *Solution, gotErr, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	if got.Status != want.Status || got.Pivots != want.Pivots {
		return fmt.Sprintf("status %v after %d pivots, reference %v after %d", got.Status, got.Pivots, want.Status, want.Pivots)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Sprintf("objective %v, reference %v", got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		return fmt.Sprintf("%d values, reference %d", len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Sprintf("x[%d] = %v, reference %v", j, got.X[j], want.X[j])
		}
	}
	return ""
}

// checkMixed solves a mixedInstance with sv and then, without reloading
// the rows, under three tightened boxes, requiring each result to match
// refSolve on the same problem and bounds. It returns the number of EQ and
// GE rows whose shifted RHS was negative at the instance's own bounds.
func checkMixed(t *testing.T, sv *Solver, r *rng.Stream) (negEQ, negGE int) {
	t.Helper()
	p := mixedInstance(r)
	got, err := sv.Solve(p)
	want, wantErr := refSolve(p)
	if d := sameAsReference(got, want, err, wantErr); d != "" {
		t.Fatalf("%+v: %s", p, d)
	}
	for _, row := range p.Rows {
		rhs := row.RHS
		for j, c := range row.Coef {
			rhs -= c * p.Lo[j]
		}
		if rhs < 0 && row.Sense == EQ {
			negEQ++
		}
		if rhs < 0 && row.Sense == GE {
			negGE++
		}
	}
	for v := 0; v < 3; v++ {
		lo, up := tightened(r, p)
		got, err := sv.SolveLoaded(lo, up)
		q := *p
		q.Lo, q.Up = lo, up
		want, wantErr := refSolve(&q)
		if d := sameAsReference(got, want, err, wantErr); d != "" {
			t.Fatalf("%+v under lo=%v up=%v: %s", p, lo, up, d)
		}
	}
	return negEQ, negGE
}

// TestSimplexMatchesReference is the differential test of the sparse-
// pattern kernel against refSolve, the all-columns kernel it replaced: on
// every generator the package's tests use, plus mixedInstance solved
// through one reused Solver, both must report the same status and pivot
// count and bit-identical X and objective.
func TestSimplexMatchesReference(t *testing.T) {
	check := func(label string, trial int, p *Problem) {
		t.Helper()
		got, err := Solve(p)
		want, wantErr := refSolve(p)
		if d := sameAsReference(got, want, err, wantErr); d != "" {
			t.Fatalf("%s trial %d: %s", label, trial, d)
		}
	}
	r := rng.New(8675309)
	for trial := 0; trial < 500; trial++ {
		check("vertex", trial, vertexProblem(vertexInstance(r)))
	}
	r = rng.New(1234)
	for trial := 0; trial < 300; trial++ {
		p, _ := plantedInstance(r)
		check("planted", trial, p)
	}
	r = rng.New(20261017)
	for trial := 0; trial < 300; trial++ {
		check("box", trial, boxProblem(int8(r.Uint64()), int8(r.Uint64()), uint8(r.Uint64()), uint8(r.Uint64())))
	}
	sv := new(Solver)
	negEQ, negGE := 0, 0
	for trial := 0; trial < 2000; trial++ {
		eq, ge := checkMixed(t, sv, r)
		negEQ, negGE = negEQ+eq, negGE+ge
	}
	if negEQ < 100 || negGE < 100 {
		t.Fatalf("only %d EQ and %d GE rows had a negative shifted RHS; the generator lost its teeth", negEQ, negGE)
	}
}

// FuzzSimplex checks Solver against refSolve on mixedInstance LPs drawn
// from fuzzed seeds, with the bounds-only re-solves checkMixed adds.
func FuzzSimplex(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 1234, 8675309, 20261017} {
		f.Add(seed)
	}
	sv := new(Solver)
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkMixed(t, sv, rng.New(seed))
	})
}
