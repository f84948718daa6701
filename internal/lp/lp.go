// Package lp is a from-scratch dense linear-programming solver: a two-phase
// primal simplex with bounded variables and a Dantzig→Bland anti-cycling
// pricing fallback. It is the substrate under internal/ilp, which the
// paper's offline ILP scheduling (§IV) runs on.
//
// Problems are stated over box-bounded variables:
//
//	minimize   c·x
//	subject to a_k·x (≤ | = | ≥) b_k,  lo ≤ x ≤ up,
//
// with lo = 0 and up = +∞ by default (the classic non-negative form).
// Variable bounds are handled natively by the simplex — a bound never
// becomes a tableau row — which is what lets the branch-and-bound in
// internal/ilp tighten bounds at every tree node without growing the
// tableau with tree depth.
//
// The tableau is stored dense, but the work follows the sparsity. The
// scheduling models have a few hundred rows and columns, and a pivot row
// holds only a few nonzeros, so a pivot divides and eliminates only over
// the pivot row's nonzero columns, and once phase 1 has blanked the
// artificial columns, pricing and pivots stop before them. Each nonzero
// entry gets exactly the floating-point operations, in the same order,
// that a pass over every column would give it, so the pivot sequence and
// the results are bit-identical to the all-columns kernel kept in the
// package's tests as an oracle.
//
// A Solver can be reused across solves to pool the tableau allocation.
// For a branch and bound, whose nodes differ only in variable bounds, it
// splits a solve in two: Load checks the rows and keeps them in sparse
// form once, and SolveLoaded then solves under each node's bounds without
// reading the dense rows again.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint relation.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // a·x ≤ b
	EQ              // a·x = b
	GE              // a·x ≥ b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return "?"
}

// Constraint is one row a·x (sense) b. Coef has at most the problem's variable
// count (Solve rejects a longer row); missing trailing zeros are allowed.
type Constraint struct {
	Coef  []float64
	Sense Sense
	RHS   float64
	Name  string // optional, for diagnostics
}

// Problem is an LP over n box-bounded variables. Lo and Up are optional:
// nil means every variable ranges over [0, +∞). When set they must have
// length NumVars; Lo entries must be finite (Up may be +Inf).
type Problem struct {
	NumVars int
	C       []float64 // minimize C·x; len == NumVars
	Rows    []Constraint
	Lo, Up  []float64 // variable bounds; nil = default [0, +Inf)
}

// NewProblem returns an empty minimization problem over n variables.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, C: make([]float64, n)}
}

// AddConstraint appends a row; coef may be shorter than NumVars.
func (p *Problem) AddConstraint(coef []float64, s Sense, rhs float64, name string) {
	row := make([]float64, p.NumVars)
	copy(row, coef)
	p.Rows = append(p.Rows, Constraint{Coef: row, Sense: s, RHS: rhs, Name: name})
}

// AddBound appends the single-variable constraint x_j (sense) v as a dense
// row. Prefer SetBounds, which the simplex handles natively; AddBound is
// retained for the row-encoded legacy path that internal/ilp keeps for
// differential testing.
func (p *Problem) AddBound(j int, s Sense, v float64, name string) {
	row := make([]float64, p.NumVars)
	row[j] = 1
	p.Rows = append(p.Rows, Constraint{Coef: row, Sense: s, RHS: v, Name: name})
}

// ensureBounds materializes the Lo/Up arrays at their defaults.
func (p *Problem) ensureBounds() {
	if p.Lo == nil {
		p.Lo = make([]float64, p.NumVars)
	}
	if p.Up == nil {
		p.Up = make([]float64, p.NumVars)
		for j := range p.Up {
			p.Up[j] = math.Inf(1)
		}
	}
}

// SetBounds sets lo ≤ x_j ≤ up. Use math.Inf(1) for an unbounded top.
func (p *Problem) SetBounds(j int, lo, up float64) {
	p.ensureBounds()
	p.Lo[j], p.Up[j] = lo, up
}

// Status is a solve outcome.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "?"
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // primal values (valid when Optimal)
	Objective float64   // c·x (valid when Optimal)
	Pivots    int       // simplex iterations used (bound flips included)
}

const (
	eps       = 1e-9
	maxPivots = 200000
)

// ErrPivotLimit is returned when the simplex exceeds its iteration budget,
// which on these models indicates a modelling bug rather than a hard LP.
var ErrPivotLimit = errors.New("lp: pivot limit exceeded")

// Solve runs the two-phase simplex with a throwaway Solver. Callers with a
// hot loop (internal/ilp solves thousands of closely related LPs) should
// allocate one Solver and reuse it.
func Solve(p *Problem) (*Solution, error) {
	return new(Solver).Solve(p)
}

// Solver is a reusable dense simplex. The zero value is ready to use; all
// scratch state (tableau backing array, basis, bound bookkeeping) is pooled
// across solves, so a warm Solver allocates only the returned Solution.
// A Solver is not safe for concurrent use; give each goroutine its own.
type Solver struct {
	// The loaded problem (Load): objective and rows in index/value form,
	// before any lower-bound shift. Row i's entries are
	// rowIdx/rowVal[rowStart[i]:rowStart[i+1]], in ascending column order.
	nVars    int
	c        []float64
	rowStart []int
	rowIdx   []int
	rowVal   []float64
	rowRHS   []float64
	rowSense []Sense

	m, n int // constraint rows; total structural+slack+artificial columns
	// live bounds the columns that can hold a nonzero: all n during phase
	// 1, structural+slack once the artificial columns are blanked.
	live int

	flat  []float64   // backing storage for the tableau
	a     [][]float64 // row views into flat; a[m] is the objective row
	basis []int       // basis[i] = column basic in row i
	nz    []int       // pivot-row nonzero pattern, RHS column included

	ub   []float64 // per-column upper bound in shifted space (slack/art: +Inf)
	flip []bool    // column j is expressed as u_j − x_j (nonbasic at upper)
	lo   []float64 // structural lower bounds (the shift)

	rhs     []float64 // shifted RHS, made non-negative
	neg     []bool    // row i was negated to make its shifted RHS non-negative
	sense   []Sense   // row senses after negation
	artCols []int
}

// Solve runs the two-phase bounded-variable simplex: Load(p), then
// SolveLoaded(p.Lo, p.Up).
//
// Internally every structural variable is shifted by its lower bound
// (x = lo + x̃, 0 ≤ x̃ ≤ up−lo) and nonbasic variables rest at either end of
// their range; a variable sitting at its upper bound is represented by the
// substitution x̃ → u − x̃ (the column and its reduced cost are negated), so
// the textbook "all nonbasic at zero" pivot rules apply unchanged. The
// ratio test gains two cases: a basic variable may leave at its *upper*
// bound, and the entering variable may hit its own opposite bound first —
// a bound flip that re-substitutes the column without any pivot.
func (sv *Solver) Solve(p *Problem) (*Solution, error) {
	if err := sv.Load(p); err != nil {
		return nil, err
	}
	return sv.SolveLoaded(p.Lo, p.Up)
}

// Load validates p's objective and rows and keeps a compressed copy of
// them for SolveLoaded, so a branch and bound that only changes variable
// bounds pays for reading the dense rows once, not once per node. Later
// changes to p do not affect the loaded copy.
func (sv *Solver) Load(p *Problem) error {
	sv.rowStart = sv.rowStart[:0] // nothing is loaded until p checks out
	n := p.NumVars
	if len(p.C) != n {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.C), n)
	}
	for i, r := range p.Rows {
		if len(r.Coef) > n {
			return fmt.Errorf("lp: row %d %q has %d coefficients for %d variables", i, r.Name, len(r.Coef), n)
		}
	}
	sv.nVars = n
	sv.c = append(sv.c[:0], p.C...)
	sv.rowStart = append(sv.rowStart, 0)
	sv.rowIdx, sv.rowVal = sv.rowIdx[:0], sv.rowVal[:0]
	sv.rowRHS, sv.rowSense = sv.rowRHS[:0], sv.rowSense[:0]
	for _, r := range p.Rows {
		for j, v := range r.Coef {
			if v != 0 {
				sv.rowIdx = append(sv.rowIdx, j)
				sv.rowVal = append(sv.rowVal, v)
			}
		}
		sv.rowStart = append(sv.rowStart, len(sv.rowIdx))
		sv.rowRHS = append(sv.rowRHS, r.RHS)
		sv.rowSense = append(sv.rowSense, r.Sense)
	}
	return nil
}

// SolveLoaded solves the loaded problem under the variable bounds lo ≤ x ≤
// up; nil lo or up means the default 0 or +∞. Its cost before the first
// pivot is the tableau fill plus O(nonzeros), with no pass over the dense
// rows.
func (sv *Solver) SolveLoaded(lo, up []float64) (*Solution, error) {
	if len(sv.rowStart) == 0 {
		return nil, errors.New("lp: SolveLoaded without a loaded problem")
	}
	n := sv.nVars
	if lo != nil && len(lo) != n {
		return nil, fmt.Errorf("lp: Lo has %d entries for %d variables", len(lo), n)
	}
	if up != nil && len(up) != n {
		return nil, fmt.Errorf("lp: Up has %d entries for %d variables", len(up), n)
	}
	m := len(sv.rowRHS)
	sol := &Solution{}

	// Shift structural variables to lower bound zero and reject empty boxes.
	sv.lo = resize(sv.lo, n)
	for j := 0; j < n; j++ {
		l := 0.0
		if lo != nil {
			l = lo[j]
		}
		if math.IsInf(l, -1) || math.IsNaN(l) {
			return nil, fmt.Errorf("lp: variable %d has non-finite lower bound %g", j, l)
		}
		sv.lo[j] = l
		u := math.Inf(1)
		if up != nil {
			u = up[j]
		}
		if u < l-eps {
			sol.Status = Infeasible
			return sol, nil
		}
	}

	// Normalize rows: substitute the shift into the RHS, then negate rows
	// to b ≥ 0 so phase 1 can start from the slack/artificial basis. The
	// negation is kept per row: a negated EQ row keeps its sense.
	sv.rhs = resize(sv.rhs, m)
	sv.neg = resizeBool(sv.neg, m)
	if cap(sv.sense) < m {
		sv.sense = make([]Sense, m)
	}
	sv.sense = sv.sense[:m]
	for i := 0; i < m; i++ {
		rhs := sv.rowRHS[i]
		for k := sv.rowStart[i]; k < sv.rowStart[i+1]; k++ {
			rhs -= sv.rowVal[k] * sv.lo[sv.rowIdx[k]]
		}
		sense, neg := sv.rowSense[i], rhs < 0
		if neg {
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		sv.rhs[i], sv.neg[i], sv.sense[i] = rhs, neg, sense
	}

	// Column layout: [structural | slacks/surplus | artificials | RHS].
	nSlack, nArt := 0, 0
	for _, s := range sv.sense {
		if s != EQ {
			nSlack++
		}
		if s != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	sv.m, sv.n, sv.live = m, total, total
	sv.flat = resize(sv.flat, (m+1)*(total+1))
	for i := range sv.flat {
		sv.flat[i] = 0
	}
	if cap(sv.a) < m+1 {
		sv.a = make([][]float64, m+1)
	}
	sv.a = sv.a[:m+1]
	for i := range sv.a {
		sv.a[i] = sv.flat[i*(total+1) : (i+1)*(total+1)]
	}
	sv.basis = resizeInt(sv.basis, m)
	sv.ub = resize(sv.ub, total)
	sv.flip = resizeBool(sv.flip, total)
	for j := 0; j < total; j++ {
		sv.flip[j] = false
		if j < n {
			u := math.Inf(1)
			if up != nil {
				u = up[j]
			}
			u -= sv.lo[j]
			if u < 0 {
				u = 0
			}
			sv.ub[j] = u
		} else {
			sv.ub[j] = math.Inf(1)
		}
	}

	slackAt, artAt := n, n+nSlack
	sv.artCols = sv.artCols[:0]
	for i := 0; i < m; i++ {
		row := sv.a[i]
		for k := sv.rowStart[i]; k < sv.rowStart[i+1]; k++ {
			v := sv.rowVal[k]
			if sv.neg[i] {
				v = -v
			}
			row[sv.rowIdx[k]] = v
		}
		row[total] = sv.rhs[i]
		switch sv.sense[i] {
		case LE:
			row[slackAt] = 1
			sv.basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			sv.basis[i] = artAt
			sv.artCols = append(sv.artCols, artAt)
			artAt++
		case EQ:
			row[artAt] = 1
			sv.basis[i] = artAt
			sv.artCols = append(sv.artCols, artAt)
			artAt++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := sv.a[m]
		for _, c := range sv.artCols {
			phase1[c] = 1
		}
		// Price out the basic artificials.
		for i := 0; i < m; i++ {
			if sv.a[m][sv.basis[i]] != 0 {
				sv.subtractRow(m, i, sv.a[m][sv.basis[i]])
			}
		}
		status, err := sv.iterate(&sol.Pivots)
		if err != nil {
			return nil, err
		}
		if status == Unbounded {
			// Phase-1 objective is bounded below by 0; unbounded means a bug.
			return nil, errors.New("lp: phase-1 reported unbounded")
		}
		if -sv.a[m][total] > 1e-7 {
			sol.Status = Infeasible
			return sol, nil
		}
		// Drive any lingering artificials out of the basis.
		for i := 0; i < m; i++ {
			if sv.basis[i] < n+nSlack {
				continue
			}
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(sv.a[i][j]) > eps {
					sv.pivot(i, j)
					break
				}
			}
			// A redundant row is harmless: its artificial stays basic at 0.
		}
		// Blank artificial columns so they can never re-enter; from here on
		// no pivot can make them nonzero again, so scans stop before them.
		for _, c := range sv.artCols {
			for i := 0; i <= m; i++ {
				sv.a[i][c] = 0
			}
			sv.ub[c] = 0
		}
		sv.live = n + nSlack
	}

	// Phase 2: restore the real objective in shifted/flipped space and price
	// out the basis. The objective row's RHS cell tracks only the varying
	// part; the true objective is recomputed as c·x on extraction.
	objRow := sv.a[m]
	for j := range objRow {
		objRow[j] = 0
	}
	for j := 0; j < n; j++ {
		if sv.flip[j] {
			objRow[j] = -sv.c[j]
		} else {
			objRow[j] = sv.c[j]
		}
	}
	for i := 0; i < m; i++ {
		if c := sv.a[m][sv.basis[i]]; c != 0 {
			sv.subtractRow(m, i, c)
		}
	}
	status, err := sv.iterate(&sol.Pivots)
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		sol.Status = Unbounded
		return sol, nil
	}

	// Extract: basic variables read the RHS column, nonbasic sit at zero;
	// un-substitute flips and un-shift lower bounds.
	sol.Status = Optimal
	sol.X = make([]float64, n)
	for j := 0; j < n; j++ {
		v := 0.0
		if sv.flip[j] {
			v = sv.ub[j]
		}
		sol.X[j] = sv.lo[j] + v
	}
	for i := 0; i < m; i++ {
		if j := sv.basis[i]; j < n {
			v := sv.a[i][total]
			if sv.flip[j] {
				v = sv.ub[j] - v
			}
			sol.X[j] = sv.lo[j] + v
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += sv.c[j] * sol.X[j]
	}
	sol.Objective = obj
	return sol, nil
}

// subtractRow does a[target] -= factor * a[row] over the live columns and
// the RHS.
func (sv *Solver) subtractRow(target, row int, factor float64) {
	tr, sr := sv.a[target], sv.a[row]
	for j := 0; j < sv.live; j++ {
		tr[j] -= factor * sr[j]
	}
	tr[sv.n] -= factor * sr[sv.n]
}

// pivot makes column col basic in row row. It divides and eliminates only
// over the pivot row's nonzero columns: on the scheduling models a pivot
// row holds about ten nonzeros among hundreds of columns. Every nonzero
// entry receives exactly the operations, in the order, of a pass over all
// columns; the operations skipped (0/pv and x − f·0) can at most change the
// sign of a zero, which no pricing, ratio-test or extraction decision
// distinguishes.
func (sv *Solver) pivot(row, col int) {
	pr := sv.a[row]
	pv := pr[col]
	nz := sv.nz[:0]
	for j := 0; j < sv.live; j++ {
		if pr[j] != 0 {
			nz = append(nz, j)
		}
	}
	nz = append(nz, sv.n)
	sv.nz = nz
	for _, j := range nz {
		pr[j] /= pv
	}
	pr[col] = 1 // exact
	for i := 0; i <= sv.m; i++ {
		if i == row {
			continue
		}
		tr := sv.a[i]
		if f := tr[col]; math.Abs(f) > 0 {
			for _, j := range nz {
				tr[j] -= f * pr[j]
			}
			tr[col] = 0 // exact
		}
	}
	sv.basis[row] = col
}

// flipColumn re-substitutes column col between x̃ and u−x̃: the RHS column
// absorbs u·a[i][col] and the column negates, moving the nonbasic variable
// from one bound to the other without a pivot.
func (sv *Solver) flipColumn(col int) {
	u := sv.ub[col]
	for i := 0; i <= sv.m; i++ {
		if c := sv.a[i][col]; c != 0 {
			sv.a[i][sv.n] -= c * u
			sv.a[i][col] = -c
		}
	}
	sv.flip[col] = !sv.flip[col]
}

// flipLeavingRow substitutes the basic variable of row r by its
// upper-bound complement before a pivot in which it leaves at its upper
// bound: the whole row negates (its own unit coefficient restored to +1)
// and the RHS becomes u − rhs, so the standard pivot arithmetic applies.
func (sv *Solver) flipLeavingRow(r int) {
	l := sv.basis[r]
	u := sv.ub[l]
	row := sv.a[r]
	for j := 0; j < sv.live; j++ {
		row[j] = -row[j]
	}
	row[sv.n] = -row[sv.n]
	row[l] = 1
	row[sv.n] += u
	sv.flip[l] = !sv.flip[l]
}

// iterate runs primal simplex to optimality, unboundedness or the pivot cap.
//
// Anti-cycling: Dantzig pricing (most negative reduced cost) is used while
// the objective makes progress; after 2(m+n) stalled iterations the pricing
// falls back to Bland's rule (first eligible column, smallest basis index on
// ratio-test ties), which provably terminates on degenerate tableaus. Bound
// flips move a variable by its full range u > 0 and are therefore never
// degenerate, so Bland's argument carries over to the bounded simplex.
func (sv *Solver) iterate(pivots *int) (Status, error) {
	stall := 0
	lastObj := math.Inf(1)
	for {
		if *pivots >= maxPivots {
			return Optimal, ErrPivotLimit
		}
		bland := stall > 2*(sv.m+sv.n)

		// Entering column: most negative reduced cost (Dantzig) or first
		// negative (Bland). Columns with an empty range (fixed variables,
		// blanked artificials) can never move and are skipped.
		col := -1
		best := -eps
		for j := 0; j < sv.live; j++ {
			rc := sv.a[sv.m][j]
			if rc < -eps && sv.ub[j] > eps {
				if bland {
					col = j
					break
				}
				if rc < best {
					best, col = rc, j
				}
			}
		}
		if col == -1 {
			return Optimal, nil
		}

		// Ratio test over three limits: a basic variable reaching its lower
		// bound (a>0), a basic variable reaching its finite upper bound
		// (a<0), or the entering variable reaching its own upper bound.
		// Bland tie-break on basis index among rows; the entering variable's
		// own bound wins near-ties (a flip is cheaper than a pivot and
		// strictly advances).
		row := -1
		leaveAtUpper := false
		bestRatio := sv.ub[col]
		for i := 0; i < sv.m; i++ {
			aij := sv.a[i][col]
			if aij > eps {
				ratio := sv.a[i][sv.n] / aij
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && row != -1 && sv.basis[i] < sv.basis[row]) {
					bestRatio, row, leaveAtUpper = ratio, i, false
				}
			} else if aij < -eps {
				ubB := sv.ub[sv.basis[i]]
				if math.IsInf(ubB, 1) {
					continue
				}
				ratio := (ubB - sv.a[i][sv.n]) / -aij
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && row != -1 && sv.basis[i] < sv.basis[row]) {
					bestRatio, row, leaveAtUpper = ratio, i, true
				}
			}
		}
		if row == -1 {
			if math.IsInf(bestRatio, 1) {
				return Unbounded, nil
			}
			sv.flipColumn(col)
		} else {
			if leaveAtUpper {
				sv.flipLeavingRow(row)
			}
			sv.pivot(row, col)
		}
		*pivots++

		obj := -sv.a[sv.m][sv.n]
		if obj < lastObj-eps {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

// resize returns s with length n, reusing capacity.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
