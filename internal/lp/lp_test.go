package lp

import (
	"math"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// Classic: maximize 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 → x=2,y=6,obj=36.
// As minimization: minimize -3x-5y.
func TestTextbookMaximization(t *testing.T) {
	p := NewProblem(2)
	p.C = []float64{-3, -5}
	p.AddConstraint([]float64{1, 0}, LE, 4, "x<=4")
	p.AddConstraint([]float64{0, 2}, LE, 12, "2y<=12")
	p.AddConstraint([]float64{3, 2}, LE, 18, "3x+2y<=18")
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almost(sol.X[0], 2) || !almost(sol.X[1], 6) {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
	if !almost(sol.Objective, -36) {
		t.Errorf("objective = %g, want -36", sol.Objective)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// minimize x+y  s.t. x+y >= 3, x = 1 → x=1, y=2, obj=3.
	p := NewProblem(2)
	p.C = []float64{1, 1}
	p.AddConstraint([]float64{1, 1}, GE, 3, "")
	p.AddConstraint([]float64{1, 0}, EQ, 1, "")
	sol := solveOK(t, p)
	if sol.Status != Optimal || !almost(sol.Objective, 3) {
		t.Fatalf("sol = %+v", sol)
	}
	if !almost(sol.X[0], 1) || !almost(sol.X[1], 2) {
		t.Errorf("x = %v", sol.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.C = []float64{1}
	p.AddConstraint([]float64{1}, LE, 1, "")
	p.AddConstraint([]float64{1}, GE, 2, "")
	sol := solveOK(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.C = []float64{-1} // maximize x with no upper bound
	p.AddConstraint([]float64{1}, GE, 0, "")
	sol := solveOK(t, p)
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -2  ≡  x >= 2; minimize x → 2.
	p := NewProblem(1)
	p.C = []float64{1}
	p.AddConstraint([]float64{-1}, LE, -2, "")
	sol := solveOK(t, p)
	if sol.Status != Optimal || !almost(sol.X[0], 2) {
		t.Errorf("sol = %+v", sol)
	}
}

func TestDegenerateProblemTerminates(t *testing.T) {
	// Beale's classic cycling example (under certain pivot rules).
	p := NewProblem(4)
	p.C = []float64{-0.75, 150, -0.02, 6}
	p.AddConstraint([]float64{0.25, -60, -0.04, 9}, LE, 0, "")
	p.AddConstraint([]float64{0.5, -90, -0.02, 3}, LE, 0, "")
	p.AddConstraint([]float64{0, 0, 1, 0}, LE, 1, "")
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almost(sol.Objective, -0.05) {
		t.Errorf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestEqualityOnlySystem(t *testing.T) {
	// x+y=4, x-y=2 → x=3,y=1; objective irrelevant but must report it.
	p := NewProblem(2)
	p.C = []float64{1, 2}
	p.AddConstraint([]float64{1, 1}, EQ, 4, "")
	p.AddConstraint([]float64{1, -1}, EQ, 2, "")
	sol := solveOK(t, p)
	if sol.Status != Optimal || !almost(sol.X[0], 3) || !almost(sol.X[1], 1) {
		t.Fatalf("sol = %+v", sol)
	}
	if !almost(sol.Objective, 5) {
		t.Errorf("objective = %g", sol.Objective)
	}
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicated equality rows must not break phase 1 cleanup.
	p := NewProblem(2)
	p.C = []float64{1, 1}
	p.AddConstraint([]float64{1, 1}, EQ, 2, "")
	p.AddConstraint([]float64{1, 1}, EQ, 2, "dup")
	p.AddConstraint([]float64{2, 2}, EQ, 4, "scaled dup")
	sol := solveOK(t, p)
	if sol.Status != Optimal || !almost(sol.Objective, 2) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestAddBound(t *testing.T) {
	p := NewProblem(2)
	p.C = []float64{-1, -1}
	p.AddConstraint([]float64{1, 1}, LE, 10, "")
	p.AddBound(0, LE, 3, "x0<=3")
	p.AddBound(1, LE, 4, "x1<=4")
	sol := solveOK(t, p)
	if !almost(sol.X[0], 3) || !almost(sol.X[1], 4) {
		t.Errorf("x = %v", sol.X)
	}
}

func TestObjectiveLengthValidation(t *testing.T) {
	p := &Problem{NumVars: 3, C: []float64{1}}
	if _, err := Solve(p); err == nil {
		t.Error("mismatched objective accepted")
	}
}

// TestLongRowRejected: a row with more coefficients than variables is an
// error from Load and Solve, not silently truncated, and a failed Load
// leaves nothing for SolveLoaded to solve.
func TestLongRowRejected(t *testing.T) {
	p := NewProblem(2)
	p.C = []float64{1, 1}
	p.Rows = append(p.Rows, Constraint{Coef: []float64{1, 1, 1}, Sense: LE, RHS: 4, Name: "long"})
	if _, err := Solve(p); err == nil {
		t.Error("Solve accepted a row longer than NumVars")
	}
	sv := new(Solver)
	if err := sv.Load(p); err == nil {
		t.Error("Load accepted a row longer than NumVars")
	}
	if _, err := sv.SolveLoaded(nil, nil); err == nil {
		t.Error("SolveLoaded solved after a failed Load")
	}
}

func TestSenseAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" || Sense(9).String() != "?" {
		t.Error("Sense strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Status(9).String() != "?" {
		t.Error("Status strings wrong")
	}
}

// A small scheduling-shaped model: three jobs in fixed order with start
// times s_k, chain constraints s_{k+1} >= s_k + dur_k, deadlines, and
// minimize total start time. Mirrors how internal/offline builds models.
func TestChainModel(t *testing.T) {
	// durations 2,3,2; releases 0,1,4; deadlines 5, 8, 10.
	p := NewProblem(3)
	p.C = []float64{1, 1, 1}
	p.AddBound(0, GE, 0, "r0")
	p.AddBound(1, GE, 1, "r1")
	p.AddBound(2, GE, 4, "r2")
	p.AddConstraint([]float64{-1, 1, 0}, GE, 2, "chain01")
	p.AddConstraint([]float64{0, -1, 1}, GE, 3, "chain12")
	p.AddBound(0, LE, 3, "d0")
	p.AddBound(1, LE, 5, "d1")
	p.AddBound(2, LE, 8, "d2")
	sol := solveOK(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	want := []float64{0, 2, 5}
	for i := range want {
		if !almost(sol.X[i], want[i]) {
			t.Errorf("s[%d] = %g, want %g", i, sol.X[i], want[i])
		}
	}
}

// boxProblem is min c·x over the row-encoded box 0 ≤ x_k ≤ b_k%20 + 1.
func boxProblem(c1, c2 int8, b1, b2 uint8) *Problem {
	p := NewProblem(2)
	p.C = []float64{float64(c1), float64(c2)}
	p.AddBound(0, LE, float64(b1%20)+1, "")
	p.AddBound(1, LE, float64(b2%20)+1, "")
	return p
}

// Property: for random feasible box-constrained LPs, the reported optimum
// respects all constraints and is not worse than a feasible corner we know.
func TestRandomBoxProblems(t *testing.T) {
	f := func(c1, c2 int8, b1, b2 uint8) bool {
		sol, err := Solve(boxProblem(c1, c2, b1, b2))
		if err != nil || sol.Status != Optimal {
			return false
		}
		// The optimum of min c·x over a box with x>=0 picks 0 or ub per sign.
		want := 0.0
		if c1 < 0 {
			want += float64(c1) * (float64(b1%20) + 1)
		}
		if c2 < 0 {
			want += float64(c2) * (float64(b2%20) + 1)
		}
		return almost(sol.Objective, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
