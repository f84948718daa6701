package lp

import (
	"errors"
	"fmt"
	"math"
)

// refSolve is the all-columns kernel the package shipped before its pivots
// went sparse: every pivot divides and updates every tableau column, and
// every solve re-reads each dense Coef row. It is kept verbatim as the
// test oracle for Solver: on any problem both must take the same pivots and
// return bit-identical results (TestSimplexMatchesReference, FuzzSimplex).
// It ignores coefficients past NumVars, which Solver now rejects.
func refSolve(p *Problem) (*Solution, error) {
	return new(refSolver).solve(p)
}

type refSolver struct {
	m, n int // constraint rows; total structural+slack+artificial columns

	flat  []float64   // backing storage for the tableau
	a     [][]float64 // row views into flat; a[m] is the objective row
	basis []int       // basis[i] = column basic in row i

	ub   []float64 // per-column upper bound in shifted space (slack/art: +Inf)
	flip []bool    // column j is expressed as u_j − x_j (nonbasic at upper)
	lo   []float64 // structural lower bounds (the shift)

	rowCoef  []float64 // normalized row coefficients, m×n
	rowRHS   []float64
	rowSense []Sense
	artCols  []int
}

// solve runs the two-phase bounded-variable simplex.
//
// Internally every structural variable is shifted by its lower bound
// (x = lo + x̃, 0 ≤ x̃ ≤ up−lo) and nonbasic variables rest at either end of
// their range; a variable sitting at its upper bound is represented by the
// substitution x̃ → u − x̃ (the column and its reduced cost are negated), so
// the textbook "all nonbasic at zero" pivot rules apply unchanged. The
// ratio test gains two cases: a basic variable may leave at its *upper*
// bound, and the entering variable may hit its own opposite bound first —
// a bound flip that re-substitutes the column without any pivot.
func (sv *refSolver) solve(p *Problem) (*Solution, error) {
	if len(p.C) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.C), p.NumVars)
	}
	if p.Lo != nil && len(p.Lo) != p.NumVars {
		return nil, fmt.Errorf("lp: Lo has %d entries for %d variables", len(p.Lo), p.NumVars)
	}
	if p.Up != nil && len(p.Up) != p.NumVars {
		return nil, fmt.Errorf("lp: Up has %d entries for %d variables", len(p.Up), p.NumVars)
	}
	m := len(p.Rows)
	n := p.NumVars
	sol := &Solution{}

	// Shift structural variables to lower bound zero and reject empty boxes.
	sv.lo = resize(sv.lo, n)
	for j := 0; j < n; j++ {
		lo := 0.0
		if p.Lo != nil {
			lo = p.Lo[j]
		}
		if math.IsInf(lo, -1) || math.IsNaN(lo) {
			return nil, fmt.Errorf("lp: variable %d has non-finite lower bound %g", j, lo)
		}
		sv.lo[j] = lo
		up := math.Inf(1)
		if p.Up != nil {
			up = p.Up[j]
		}
		if up < lo-eps {
			sol.Status = Infeasible
			return sol, nil
		}
	}

	// Normalize rows: substitute the shift into the RHS, then flip rows to
	// b ≥ 0 so phase 1 can start from the slack/artificial basis.
	sv.rowCoef = resize(sv.rowCoef, m*n)
	sv.rowRHS = resize(sv.rowRHS, m)
	if cap(sv.rowSense) < m {
		sv.rowSense = make([]Sense, m)
	}
	sv.rowSense = sv.rowSense[:m]
	for i, r := range p.Rows {
		coef := sv.rowCoef[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if j < len(r.Coef) {
				coef[j] = r.Coef[j]
			} else {
				coef[j] = 0
			}
		}
		rhs := r.RHS
		for j := 0; j < n; j++ {
			rhs -= coef[j] * sv.lo[j]
		}
		sense := r.Sense
		if rhs < 0 {
			for j := range coef {
				coef[j] = -coef[j]
			}
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		sv.rowRHS[i], sv.rowSense[i] = rhs, sense
	}

	// Column layout: [structural | slacks/surplus | artificials | RHS].
	nSlack, nArt := 0, 0
	for _, s := range sv.rowSense {
		if s != EQ {
			nSlack++
		}
		if s != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	sv.m, sv.n = m, total
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
	if cap(sv.flip) < total {
		sv.flip = make([]bool, total)
	}
	sv.flip = sv.flip[:total]
	for j := 0; j < total; j++ {
		sv.flip[j] = false
		if j < n {
			up := math.Inf(1)
			if p.Up != nil {
				up = p.Up[j]
			}
			u := up - sv.lo[j]
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
		copy(sv.a[i], sv.rowCoef[i*n:(i+1)*n])
		sv.a[i][total] = sv.rowRHS[i]
		switch sv.rowSense[i] {
		case LE:
			sv.a[i][slackAt] = 1
			sv.basis[i] = slackAt
			slackAt++
		case GE:
			sv.a[i][slackAt] = -1
			slackAt++
			sv.a[i][artAt] = 1
			sv.basis[i] = artAt
			sv.artCols = append(sv.artCols, artAt)
			artAt++
		case EQ:
			sv.a[i][artAt] = 1
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
		// Blank artificial columns so they can never re-enter.
		for _, c := range sv.artCols {
			for i := 0; i <= m; i++ {
				sv.a[i][c] = 0
			}
			sv.ub[c] = 0
		}
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
			objRow[j] = -p.C[j]
		} else {
			objRow[j] = p.C[j]
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
		obj += p.C[j] * sol.X[j]
	}
	sol.Objective = obj
	return sol, nil
}

// subtractRow does a[target] -= factor * a[row], including the RHS.
func (sv *refSolver) subtractRow(target, row int, factor float64) {
	tr, sr := sv.a[target], sv.a[row]
	for j := 0; j <= sv.n; j++ {
		tr[j] -= factor * sr[j]
	}
}

// pivot makes column col basic in row row.
func (sv *refSolver) pivot(row, col int) {
	pr := sv.a[row]
	pv := pr[col]
	for j := 0; j <= sv.n; j++ {
		pr[j] /= pv
	}
	pr[col] = 1 // exact
	for i := 0; i <= sv.m; i++ {
		if i == row {
			continue
		}
		if f := sv.a[i][col]; math.Abs(f) > 0 {
			sv.subtractRow(i, row, f)
			sv.a[i][col] = 0 // exact
		}
	}
	sv.basis[row] = col
}

// flipColumn re-substitutes column col between x̃ and u−x̃: the RHS column
// absorbs u·a[i][col] and the column negates, moving the nonbasic variable
// from one bound to the other without a pivot.
func (sv *refSolver) flipColumn(col int) {
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
func (sv *refSolver) flipLeavingRow(r int) {
	l := sv.basis[r]
	u := sv.ub[l]
	row := sv.a[r]
	for j := 0; j <= sv.n; j++ {
		row[j] = -row[j]
	}
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
func (sv *refSolver) iterate(pivots *int) (Status, error) {
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
		for j := 0; j < sv.n; j++ {
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
