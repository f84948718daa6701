package ilp

import (
	"math"
	"testing"
	"time"

	"nprt/internal/lp"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// Knapsack-style: maximize 8a+11b+6c+4d (binary) with 5a+7b+4c+3d <= 14.
// Optimum: a=b=c=1 → value 25, weight 16? No: 5+7+4=16 > 14. Correct
// optimum is a=1,b=1,d=1: 8+11+4=23, weight 15 > 14. Recheck: feasible sets
// of weight <= 14: {a,b}=12→19, {b,c,d}=14→21, {a,c,d}=12→18, {a,b,d} no.
// Optimum 21 at b=c=d=1.
func TestBinaryKnapsack(t *testing.T) {
	p := NewProblem(4)
	p.LP.C = []float64{-8, -11, -6, -4}
	p.LP.AddConstraint([]float64{5, 7, 4, 3}, lp.LE, 14, "cap")
	for j := 0; j < 4; j++ {
		p.SetInteger(j)
		p.LP.AddBound(j, lp.LE, 1, "bin")
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almost(sol.Objective, -21) {
		t.Errorf("objective = %g, want -21", sol.Objective)
	}
	want := []float64{0, 1, 1, 1}
	for j := range want {
		if !almost(sol.X[j], want[j]) {
			t.Errorf("x = %v, want %v", sol.X, want)
			break
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// min -x s.t. x <= 3.7, x integer → x = 3.
	p := NewProblem(1)
	p.LP.C = []float64{-1}
	p.LP.AddBound(0, lp.LE, 3.7, "")
	p.SetInteger(0)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almost(sol.X[0], 3) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestMixedIntegerProblem(t *testing.T) {
	// min -2x - y, x integer, y continuous; x+y <= 4.5, x <= 2.3.
	// Relaxation picks x=2.3; branching forces x=2, y=2.5 → -6.5
	// (vs x=0,y=4.5 → -4.5).
	p := NewProblem(2)
	p.LP.C = []float64{-2, -1}
	p.LP.AddConstraint([]float64{1, 1}, lp.LE, 4.5, "")
	p.LP.AddBound(0, lp.LE, 2.3, "")
	p.SetInteger(0)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almost(sol.Objective, -6.5) {
		t.Fatalf("sol = %+v", sol)
	}
	if !almost(sol.X[0], 2) || !almost(sol.X[1], 2.5) {
		t.Errorf("x = %v", sol.X)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 3 with x integer has no solution.
	p := NewProblem(1)
	p.LP.C = []float64{1}
	p.LP.AddConstraint([]float64{2}, lp.EQ, 3, "")
	p.SetInteger(0)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

// TestLongRowRejected: a row with more coefficients than variables is
// reported as an error under both bound encodings, before the root
// heuristic's rounding check could index past the incumbent vector.
func TestLongRowRejected(t *testing.T) {
	p := NewProblem(1)
	p.LP.C = []float64{1}
	p.LP.Rows = append(p.LP.Rows, lp.Constraint{Coef: []float64{1, 1}, Sense: lp.GE, RHS: 0.5})
	p.SetInteger(0)
	for _, dense := range []bool{false, true} {
		if _, err := Solve(p, Options{DenseRowBounds: dense}); err == nil {
			t.Errorf("DenseRowBounds=%v: a row longer than NumVars was accepted", dense)
		}
	}
}

func TestLPInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.LP.C = []float64{1}
	p.LP.AddBound(0, lp.LE, 1, "")
	p.LP.AddBound(0, lp.GE, 2, "")
	p.SetInteger(0)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status = %v", sol.Status)
	}
}

func TestUnboundedRoot(t *testing.T) {
	p := NewProblem(1)
	p.LP.C = []float64{-1}
	p.SetInteger(0)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestNodeBudgetReturnsIncumbent(t *testing.T) {
	// A 12-variable knapsack where one node is not enough to prove
	// optimality, but incumbents are found along the way.
	n := 12
	p := NewProblem(n)
	weights := []float64{3, 5, 7, 9, 11, 13, 4, 6, 8, 10, 12, 14}
	for j := 0; j < n; j++ {
		p.LP.C[j] = -float64(j + 2)
		p.SetInteger(j)
		p.LP.AddBound(j, lp.LE, 1, "")
	}
	p.LP.AddConstraint(weights, lp.LE, 31, "cap")

	full, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("full solve status = %v", full.Status)
	}

	var incumbents int
	limited, err := Solve(p, Options{MaxNodes: 5, OnIncumbent: func([]float64, float64) { incumbents++ }})
	if err != nil {
		t.Fatal(err)
	}
	if limited.Status != Feasible && limited.Status != Optimal && limited.Status != Limit {
		t.Fatalf("limited status = %v", limited.Status)
	}
	if limited.Status == Feasible {
		if limited.Objective < full.Objective-1e-9 {
			t.Error("incumbent better than optimum — impossible")
		}
		if incumbents == 0 {
			t.Error("OnIncumbent never fired")
		}
		if limited.BestBound > limited.Objective+1e-9 {
			t.Errorf("bound %g above incumbent %g", limited.BestBound, limited.Objective)
		}
	}
}

func TestSchedulingShapedILP(t *testing.T) {
	// Two jobs in fixed order, binary mode choice y_k: durations are
	// 6−4·y_k (accurate 6, imprecise 2), deadline of job 2 is 9, job 1 is 6;
	// starts s_1 = 0, s_2 = dur_1. Minimize error 3·y_1 + 5·y_2.
	// Accurate both: finish = 12 > 9 → at least one imprecise; choosing
	// y_1=1 (error 3): finish = 2+6 = 8 ≤ 9 and job1 finish 2 ≤ 6. Optimal.
	// Variables: y1, y2.
	p := NewProblem(2)
	p.LP.C = []float64{3, 5}
	// Job1 finish: 6 − 4y1 ≤ 6 (always true). Job2 finish: (6−4y1)+(6−4y2) ≤ 9
	// → −4y1 −4y2 ≤ −3 → 4y1+4y2 ≥ 3.
	p.LP.AddConstraint([]float64{4, 4}, lp.GE, 3, "deadline2")
	for j := 0; j < 2; j++ {
		p.SetInteger(j)
		p.LP.AddBound(j, lp.LE, 1, "bin")
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !almost(sol.Objective, 3) {
		t.Fatalf("sol = %+v", sol)
	}
	if !almost(sol.X[0], 1) || !almost(sol.X[1], 0) {
		t.Errorf("x = %v, want [1 0]", sol.X)
	}
}

func TestSortedFractionalVars(t *testing.T) {
	p := NewProblem(3)
	p.SetInteger(0)
	p.SetInteger(2)
	x := []float64{0.5, 0.4, 0.9}
	vars := SortedFractionalVars(p, x)
	// Var 0 has fractionality 0.5, var 2 has 0.1; var 1 is continuous.
	if len(vars) != 2 || vars[0] != 0 || vars[1] != 2 {
		t.Errorf("vars = %v, want [0 2]", vars)
	}
	if got := SortedFractionalVars(p, []float64{1, 0.3, 2}); len(got) != 0 {
		t.Errorf("integral point should have no fractional vars: %v", got)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Unbounded: "unbounded", Limit: "limit", Status(9): "?",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

func TestTimeLimitReturnsGracefully(t *testing.T) {
	// A 16-variable knapsack with a 1ns budget: the solver must stop at the
	// budget without error, reporting Limit or whatever incumbent it found.
	n := 16
	p := NewProblem(n)
	weights := make([]float64, n)
	for j := 0; j < n; j++ {
		p.LP.C[j] = -float64(j%7 + 2)
		weights[j] = float64(j%5 + 3)
		p.SetInteger(j)
		p.LP.AddBound(j, lp.LE, 1, "")
	}
	p.LP.AddConstraint(weights, lp.LE, 23, "cap")
	sol, err := Solve(p, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	switch sol.Status {
	case Limit, Feasible, Optimal: // all acceptable under a tiny budget
	default:
		t.Errorf("status = %v", sol.Status)
	}
}
