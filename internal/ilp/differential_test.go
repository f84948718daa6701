// Differential and determinism tests for the branch-and-bound overhaul:
//
//   - native bounds vs the retained dense-row encoding on every Table-I
//     offline model and on randomized mixed ILPs;
//   - parallel (Workers > 1) vs serial bit-identical output;
//   - a tight TimeLimit still returning Feasible with the root incumbent.
//
// This file lives in package ilp_test so it can import internal/offline and
// internal/workload (which themselves import ilp) without a cycle.
package ilp_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nprt/internal/ilp"
	"nprt/internal/lp"
	"nprt/internal/offline"
	"nprt/internal/rng"
	"nprt/internal/task"
	"nprt/internal/workload"
)

// tableINodeBudget caps the search on the Table-I models so the suite stays
// fast: small models reach Optimal/Infeasible well inside it, and on the
// large Rnd10–Rnd13 instances (which no cuts-free branch-and-bound proves
// optimal in test time — the LP integrality gap is several per cent) both
// configurations explore exactly this many nodes, making their incumbents
// comparable.
const tableINodeBudget = 200

// tableIModels builds the §IV-A mode ILP for every Table-I case under the
// deepest-mode EDF order.
func tableIModels(t *testing.T) (names []string, models []*ilp.Problem) {
	t.Helper()
	names, models, err := buildTableIModels()
	if err != nil {
		t.Fatal(err)
	}
	return names, models
}

func buildTableIModels() (names []string, models []*ilp.Problem, err error) {
	cases, err := workload.CachedCases()
	if err != nil {
		return nil, nil, err
	}
	for _, c := range cases {
		s := c.MustSet()
		order, err := offline.EDFOrder(s, task.Deepest)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: EDF order: %w", c.Name, err)
		}
		names = append(names, c.Name)
		models = append(models, offline.BuildModeILP(s, order))
	}
	if len(models) != 14 {
		return nil, nil, fmt.Errorf("expected the 14 Table-I models, got %d", len(models))
	}
	return names, models, nil
}

// tableIRun holds the serial tableINodeBudget solves of every Table-I
// model under both bound encodings.
type tableIRun struct {
	names         []string
	models        []*ilp.Problem
	native, dense []*ilp.Solution
}

// tableISerial solves the Table-I models once per test binary; the tests
// that compare against serial results share it instead of re-solving.
var tableISerial = sync.OnceValues(func() (*tableIRun, error) {
	names, models, err := buildTableIModels()
	if err != nil {
		return nil, err
	}
	run := &tableIRun{names: names, models: models}
	for i, p := range models {
		nat, err := ilp.Solve(p, ilp.Options{MaxNodes: tableINodeBudget})
		if err != nil {
			return nil, fmt.Errorf("%s native: %w", names[i], err)
		}
		den, err := ilp.Solve(p, ilp.Options{MaxNodes: tableINodeBudget, DenseRowBounds: true})
		if err != nil {
			return nil, fmt.Errorf("%s dense: %w", names[i], err)
		}
		run.native = append(run.native, nat)
		run.dense = append(run.dense, den)
	}
	return run, nil
})

// integralFeasible verifies x against every row and native bound of p and
// that integral variables are integers — an incumbent check independent of
// the solver internals.
func integralFeasible(p *ilp.Problem, x []float64) bool {
	const tol = 1e-6
	for j := range x {
		lo, up := 0.0, math.Inf(1)
		if p.LP.Lo != nil {
			lo = p.LP.Lo[j]
		}
		if p.LP.Up != nil {
			up = p.LP.Up[j]
		}
		if x[j] < lo-tol || x[j] > up+tol {
			return false
		}
		if p.Integer[j] && math.Abs(x[j]-math.Round(x[j])) > tol {
			return false
		}
	}
	for _, r := range p.LP.Rows {
		dot := 0.0
		for j, c := range r.Coef {
			dot += c * x[j]
		}
		switch r.Sense {
		case lp.LE:
			if dot > r.RHS+tol {
				return false
			}
		case lp.GE:
			if dot < r.RHS-tol {
				return false
			}
		case lp.EQ:
			if math.Abs(dot-r.RHS) > tol {
				return false
			}
		}
	}
	return true
}

// TestTableIDenseRowDifferential: on all 14 Table-I offline models the new
// native-bound path and the retained dense-row path must agree in status;
// where the search terminates (Optimal / Infeasible) they must agree in
// objective and mode assignment, and every budget-limited incumbent must be
// independently verified integral-feasible.
func TestTableIDenseRowDifferential(t *testing.T) {
	run, err := tableISerial()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range run.models {
		name, nat, den := run.names[i], run.native[i], run.dense[i]
		if nat.Status != den.Status {
			t.Errorf("%s: status native=%v dense=%v", name, nat.Status, den.Status)
			continue
		}
		switch nat.Status {
		case ilp.Optimal:
			if math.Abs(nat.Objective-den.Objective) > 1e-6 {
				t.Errorf("%s: optimal objective native=%.9f dense=%.9f", name, nat.Objective, den.Objective)
			}
			for j := range p.Integer {
				if p.Integer[j] && math.Round(nat.X[j]) != math.Round(den.X[j]) {
					t.Errorf("%s: assignment differs at y[%d]: native=%g dense=%g", name, j, nat.X[j], den.X[j])
					break
				}
			}
		case ilp.Feasible:
			// Budget-limited: floating-point pivot differences between the
			// two tableau shapes may legitimately steer the trees apart, so
			// compare incumbent *validity*, not identity.
			if !integralFeasible(p, nat.X) {
				t.Errorf("%s: native incumbent infeasible", name)
			}
			if !integralFeasible(p, den.X) {
				t.Errorf("%s: dense incumbent infeasible", name)
			}
		}
		if nat.Status == ilp.Optimal || nat.Status == ilp.Feasible {
			if !integralFeasible(p, nat.X) {
				t.Errorf("%s: native solution fails independent feasibility check", name)
			}
		}
	}
}

// TestLegacyModelEncodingAgrees pits the full historical stack — row-encoded
// model (BuildModeILPRowBounds) + dense-row branching + no heuristic —
// against the new native stack on every Table-I case that terminates within
// the budget: proven statuses and optimal objectives must coincide.
func TestLegacyModelEncodingAgrees(t *testing.T) {
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatal(err)
	}
	run, err := tableISerial()
	if err != nil {
		t.Fatal(err)
	}
	terminated := 0
	for i, c := range cases {
		if c.Name != run.names[i] {
			t.Fatalf("case %d is %s, serial run has %s", i, c.Name, run.names[i])
		}
		s := c.MustSet()
		order, err := offline.EDFOrder(s, task.Deepest)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		nat := run.native[i]
		if nat.Status != ilp.Optimal && nat.Status != ilp.Infeasible {
			continue // budget-limited: legacy explores a same-size but possibly different tree
		}
		leg, err := ilp.Solve(offline.BuildModeILPRowBounds(s, order),
			ilp.Options{MaxNodes: 100000, DenseRowBounds: true, DisableHeuristic: true})
		if err != nil {
			t.Fatal(err)
		}
		if leg.Status != nat.Status {
			t.Errorf("%s: status legacy=%v native=%v", c.Name, leg.Status, nat.Status)
			continue
		}
		if nat.Status == ilp.Optimal && math.Abs(leg.Objective-nat.Objective) > 1e-6 {
			t.Errorf("%s: objective legacy=%.9f native=%.9f", c.Name, leg.Objective, nat.Objective)
		}
		terminated++
	}
	if terminated < 5 {
		t.Fatalf("only %d cases terminated; the equivalence check lost its teeth", terminated)
	}
}

// goldenLine renders one Table-I result for the golden file: status, node
// count, the exact bits of Objective and BestBound, and an FNV-1a hash of
// the incumbent's bits (its length included).
func goldenLine(name, enc string, sol *ilp.Solution) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(sol.X)))
	h.Write(buf[:])
	for _, v := range sol.X {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%s %s %v nodes=%d obj=%016x bound=%016x x=%016x\n", name, enc, sol.Status,
		sol.Nodes, math.Float64bits(sol.Objective), math.Float64bits(sol.BestBound), h.Sum64())
}

// TestTableIParallelBitIdentical: for every Table-I model, both bound
// encodings and several worker counts, the search must reproduce the
// golden in testdata/tableI_golden.txt bit for bit — status, node count,
// objective, best bound and incumbent hash — and every parallel run must
// reproduce its serial incumbent vector exactly. The golden was recorded
// with the all-columns simplex kernel (refSolve in internal/lp's tests), so
// it pins the solver's absolute results, not just serial against parallel.
// This is the determinism contract that makes -ilpworkers safe to flip in
// the experiment harness.
func TestTableIParallelBitIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tableI_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	run, err := tableISerial()
	if err != nil {
		t.Fatal(err)
	}
	names := run.names
	for _, enc := range []struct {
		name   string
		dense  bool
		serial []*ilp.Solution
	}{{"native", false, run.native}, {"dense", true, run.dense}} {
		serial := enc.serial
		for _, w := range []int{1, 2, 4, 8} {
			var got strings.Builder
			for i, p := range run.models {
				sol := serial[i]
				if w > 1 {
					if sol, err = ilp.Solve(p, ilp.Options{MaxNodes: tableINodeBudget, Workers: w, DenseRowBounds: enc.dense}); err != nil {
						t.Fatalf("%s %s workers=%d: %v", names[i], enc.name, w, err)
					}
				}
				got.WriteString(goldenLine(names[i], enc.name, sol))
				if w == 1 {
					continue
				}
				if len(sol.X) != len(serial[i].X) {
					t.Errorf("%s %s workers=%d: incumbent length %d != %d", names[i], enc.name, w, len(sol.X), len(serial[i].X))
					continue
				}
				for j := range sol.X {
					if sol.X[j] != serial[i].X[j] {
						t.Errorf("%s %s workers=%d: X[%d]=%v != serial %v (must be bit-identical)",
							names[i], enc.name, w, j, sol.X[j], serial[i].X[j])
						break
					}
				}
			}
			if wantEnc := goldenSection(string(want), enc.name); got.String() != wantEnc {
				t.Errorf("%s workers=%d differs from the golden:\n got:\n%s\nwant:\n%s", enc.name, w, got.String(), wantEnc)
			}
		}
	}
}

// goldenSection returns the golden lines of one bound encoding, in file
// order.
func goldenSection(golden, enc string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(golden, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[1] == enc {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestRandomILPDifferential solves ≥100 randomized mixed ILPs to completion
// under every configuration (native / dense-row / parallel) and requires
// identical status and objective, with parallel additionally bit-identical
// to serial.
func TestRandomILPDifferential(t *testing.T) {
	r := rng.New(0xD1FF2026)
	for trial := 0; trial < 120; trial++ {
		nBin := 3 + int(r.Uint64()%4)  // 3..6 binaries
		nCont := int(r.Uint64() % 3)   // 0..2 continuous
		nRows := 2 + int(r.Uint64()%4) // 2..5 rows
		n := nBin + nCont
		p := ilp.NewProblem(n)
		for j := 0; j < nBin; j++ {
			p.SetBinary(j)
			p.LP.C[j] = float64(int(r.Uint64()%21)) - 10
		}
		for j := nBin; j < n; j++ {
			p.LP.C[j] = float64(int(r.Uint64()%11)) - 5
			p.LP.SetBounds(j, 0, float64(1+r.Uint64()%9))
		}
		for i := 0; i < nRows; i++ {
			coef := make([]float64, n)
			for j := range coef {
				coef[j] = float64(int(r.Uint64()%9)) - 4
			}
			sense := lp.Sense(r.Uint64() % 3)
			rhs := float64(int(r.Uint64()%17)) - 4
			p.LP.AddConstraint(coef, sense, rhs, "")
		}

		nat, err := ilp.Solve(p, ilp.Options{})
		if err != nil {
			t.Fatalf("trial %d native: %v", trial, err)
		}
		den, err := ilp.Solve(p, ilp.Options{DenseRowBounds: true})
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		if nat.Status != den.Status {
			t.Fatalf("trial %d: status native=%v dense=%v", trial, nat.Status, den.Status)
		}
		if nat.Status == ilp.Optimal {
			if math.Abs(nat.Objective-den.Objective) > 1e-6 {
				t.Fatalf("trial %d: objective native=%.9f dense=%.9f", trial, nat.Objective, den.Objective)
			}
			if !integralFeasible(p, nat.X) || !integralFeasible(p, den.X) {
				t.Fatalf("trial %d: optimal solution fails feasibility check", trial)
			}
		}
		par, err := ilp.Solve(p, ilp.Options{Workers: 4})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if par.Status != nat.Status || par.Objective != nat.Objective ||
			par.Nodes != nat.Nodes || par.BestBound != nat.BestBound {
			t.Fatalf("trial %d: parallel not bit-identical: {%v %.12f %d} vs {%v %.12f %d}",
				trial, par.Status, par.Objective, par.Nodes, nat.Status, nat.Objective, nat.Nodes)
		}
	}
}

// TestTightTimeLimitKeepsIncumbent (satellite of the TimeLimit batching
// change): even a time limit that expires before the first budget check —
// budgets are only probed every 64 nodes — must return Feasible with the
// root heuristic's incumbent on a large model, never Limit.
func TestTightTimeLimitKeepsIncumbent(t *testing.T) {
	names, models := tableIModels(t)
	for i, name := range names {
		if name != "Rnd10" {
			continue
		}
		p := models[i]
		sol, err := ilp.Solve(p, ilp.Options{TimeLimit: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != ilp.Feasible {
			t.Fatalf("status = %v, want feasible (incumbent from root heuristic)", sol.Status)
		}
		if math.IsInf(sol.Objective, 1) || !integralFeasible(p, sol.X) {
			t.Fatalf("incumbent invalid: obj=%v", sol.Objective)
		}
		return
	}
	t.Fatal("Rnd10 not found")
}
