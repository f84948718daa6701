// Package ilp is a branch-and-bound integer linear programming solver built
// on the internal/lp bounded-variable simplex. It is the engine behind the
// paper's offline ILP scheduling (§IV-A): best-first search on the LP
// relaxation bound, most-fractional branching, a root rounding/diving
// primal heuristic, and node/time budgets with incumbent return so a large
// hyper-period can still produce a usable (if not proven-optimal) schedule
// — mirroring the paper's "seconds to minutes" solver runs.
//
// Branching tightens a native variable bound (lb/ub) instead of appending a
// dense constraint row, so the simplex tableau does not grow with tree
// depth; the historical dense-row encoding is retained behind
// Options.DenseRowBounds and proven result-equivalent by the package's
// differential tests. The search can fan LP relaxation solves over a
// bounded worker pool (Options.Workers); sequence-numbered tie-breaking
// keeps the explored node order — and therefore the incumbent, objective,
// node count, BestBound and Status — bit-identical to a serial run.
package ilp

import (
	"math"
	"sort"
	"sync"
	"time"

	"nprt/internal/lp"
	"nprt/internal/pq"
)

// Problem is an LP with integrality requirements on a subset of variables.
type Problem struct {
	LP      *lp.Problem
	Integer []bool // len == LP.NumVars; true = must be integral
}

// NewProblem returns an ILP over n variables, none integral yet.
func NewProblem(n int) *Problem {
	return &Problem{LP: lp.NewProblem(n), Integer: make([]bool, n)}
}

// SetInteger marks variable j integral.
func (p *Problem) SetInteger(j int) { p.Integer[j] = true }

// SetBinary marks variable j integral with native bounds [0, 1].
func (p *Problem) SetBinary(j int) {
	p.Integer[j] = true
	p.LP.SetBounds(j, 0, 1)
}

// Status is a solve outcome.
type Status int8

// Solve outcomes.
const (
	// Optimal: proven optimal integral solution.
	Optimal Status = iota
	// Feasible: an integral incumbent was found but the search hit a budget
	// before proving optimality.
	Feasible
	// Infeasible: no integral solution exists.
	Infeasible
	// Unbounded: the relaxation is unbounded below.
	Unbounded
	// Limit: a budget was hit before any incumbent was found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return "?"
}

// Options bounds and shapes the search.
type Options struct {
	MaxNodes  int           // 0 = default 100000
	TimeLimit time.Duration // 0 = none; checked every 64 nodes
	// Workers > 1 solves LP relaxations of frontier nodes concurrently.
	// The explored node sequence is decided by (bound, sequence number)
	// alone, so every output field is bit-identical to Workers == 1 —
	// the same Parallel==Serial discipline the experiment drivers use.
	// (A TimeLimit is the one wall-clock-dependent budget; runs that rely
	// on bit-identical output should bound MaxNodes instead.)
	Workers int
	// DenseRowBounds encodes each branching bound as a dense constraint
	// row appended to the node's LP, the pre-bounded-simplex formulation.
	// Kept for differential testing; slower, identical results.
	DenseRowBounds bool
	// DisableHeuristic skips the root rounding/diving primal heuristic.
	DisableHeuristic bool
	// OnIncumbent, when non-nil, observes each improving integral solution.
	OnIncumbent func(x []float64, obj float64)
}

// Solution is the branch-and-bound result.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	Nodes     int     // explored branch-and-bound nodes
	BestBound float64 // global lower bound at termination
}

const intTol = 1e-6

// node is one branch-and-bound tree node. Its bound restrictions are the
// chain of (j, v, upper) records up the parent links; they are materialized
// into a bounds (or row) scratch buffer only when the node's relaxation is
// solved, so a node costs O(1) memory regardless of depth.
type node struct {
	parent *node
	j      int     // branched variable; -1 on the root
	v      float64 // bound value
	upper  bool    // true: x_j ≤ v, false: x_j ≥ v
	bound  float64 // parent relaxation objective (lower bound)
	seq    int64   // global insertion number; total-orders equal bounds
	sol    *lp.Solution
	err    error // deferred speculative-solve error
}

// nodeLess is the best-first order: smallest parent bound, then insertion
// sequence. It is a total order (seq is unique), which is what makes the
// explored sequence independent of heap layout and worker count.
func nodeLess(a, b *node) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.seq < b.seq
}

// bbState carries one Solve invocation's search state and scratch pools.
type bbState struct {
	p       *Problem
	opt     Options
	workers int

	open *pq.Heap[*node]
	seq  int64
	sol  *Solution

	solvers        []*lp.Solver
	baseLo, baseUp []float64
	lo, up         [][]float64 // per-worker materialized bounds
	chains         [][]*node   // per-worker chain-collection scratch
	dense          []denseScratch
}

// denseScratch pools the row and coefficient buffers of the legacy
// dense-row encoding (one per worker).
type denseScratch struct {
	rows  []lp.Constraint
	coefs [][]float64
	set   []int // index last set to 1 in coefs[i]; -1 when fresh
}

// coef returns the i-th pooled coefficient vector: all zeros except a 1 at
// column j. Only the previously set entry is cleared, so reuse is O(1).
func (d *denseScratch) coef(n, i, j int) []float64 {
	for len(d.coefs) <= i {
		d.coefs = append(d.coefs, make([]float64, n))
		d.set = append(d.set, -1)
	}
	c := d.coefs[i]
	if d.set[i] >= 0 {
		c[d.set[i]] = 0
	}
	c[j] = 1
	d.set[i] = j
	return c
}

// Solve runs best-first branch and bound.
func Solve(p *Problem, opt Options) (*Solution, error) {
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = time.Now().Add(opt.TimeLimit)
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}

	n := p.LP.NumVars
	st := &bbState{
		p: p, opt: opt, workers: workers,
		open:   pq.New(nodeLess),
		sol:    &Solution{Status: Limit, Objective: math.Inf(1), BestBound: math.Inf(-1)},
		baseLo: make([]float64, n),
		baseUp: make([]float64, n),
	}
	for j := 0; j < n; j++ {
		st.baseLo[j], st.baseUp[j] = 0, math.Inf(1)
		if p.LP.Lo != nil {
			st.baseLo[j] = p.LP.Lo[j]
		}
		if p.LP.Up != nil {
			st.baseUp[j] = p.LP.Up[j]
		}
	}
	st.solvers = make([]*lp.Solver, workers)
	st.lo = make([][]float64, workers)
	st.up = make([][]float64, workers)
	st.chains = make([][]*node, workers)
	st.dense = make([]denseScratch, workers)
	for w := 0; w < workers; w++ {
		st.solvers[w] = new(lp.Solver)
		st.lo[w] = make([]float64, n)
		st.up[w] = make([]float64, n)
		// Native bounds leave the rows unchanged at every node: each worker
		// loads them once and then solves node by node with bounds only.
		// The dense-row path appends rows per node and reloads in solveNode.
		if !opt.DenseRowBounds {
			if err := st.solvers[w].Load(p.LP); err != nil {
				return nil, err
			}
		}
	}
	sol := st.sol

	// Solve the root relaxation up front: the heuristic needs it, and the
	// cached result is reused when the root is processed below.
	root := &node{j: -1, bound: math.Inf(-1), seq: 0}
	st.seq = 1
	rootSol, err := st.solveNode(0, root)
	if err != nil {
		return nil, err
	}
	root.sol = rootSol
	if !opt.DisableHeuristic && rootSol.Status == lp.Optimal {
		if err := st.heuristic(root); err != nil {
			return nil, err
		}
	}
	st.open.Push(root)

	budgetHit := false
	batch := make([]*node, 0, workers)
	var wg sync.WaitGroup
	for st.open.Len() > 0 && !budgetHit {
		// Fill a batch of the best frontier nodes, in heap order.
		batch = batch[:0]
		for len(batch) < workers && st.open.Len() > 0 {
			nd, _ := st.open.Pop()
			batch = append(batch, nd)
		}

		// Speculatively solve the batch's relaxations concurrently. A
		// relaxation is a pure function of the node's bound chain, so
		// speculation can waste work (a node the serial order would have
		// pruned) but can never change any result. Errors are recorded on
		// the node and surfaced only if the node is actually processed.
		if workers > 1 && len(batch) > 1 {
			for i, nd := range batch {
				if nd.sol != nil || nd.err != nil {
					continue
				}
				wg.Add(1)
				go func(w int, nd *node) {
					defer wg.Done()
					nd.sol, nd.err = st.solveNode(w, nd)
				}(i, nd)
			}
			wg.Wait()
		}

		// Process strictly in (bound, seq) order; this loop is serial in
		// every mode and is the only place search state mutates.
		for bi, nd := range batch {
			if sol.Nodes >= maxNodes ||
				(!deadline.IsZero() && sol.Nodes&63 == 0 && time.Now().After(deadline)) {
				budgetHit = true
				st.pushBack(batch[bi:])
				break
			}
			// A child pushed by an earlier batch element may now precede
			// this node in the serial order: requeue the tail and refill.
			if minNd, ok := st.open.Peek(); ok && nodeLess(minNd, nd) {
				st.pushBack(batch[bi:])
				break
			}
			// Prune against the incumbent.
			if nd.bound >= sol.Objective-1e-9 {
				nd.sol, nd.err = nil, nil
				continue
			}
			if nd.err != nil {
				return nil, nd.err
			}
			if nd.sol == nil { // serial mode solves lazily, after the prune check
				if nd.sol, err = st.solveNode(0, nd); err != nil {
					return nil, err
				}
			}
			rel := nd.sol
			nd.sol = nil
			sol.Nodes++
			switch rel.Status {
			case lp.Infeasible:
				continue
			case lp.Unbounded:
				if nd.parent == nil {
					// An unbounded root relaxation means the ILP itself is
					// unbounded or pathological; scheduling models never are.
					sol.Status = Unbounded
					return sol, nil
				}
				continue
			}
			if rel.Objective >= sol.Objective-1e-9 {
				continue // bound prune
			}

			branchVar, _ := mostFractional(p, rel.X)
			if branchVar == -1 {
				// Integral solution: candidate incumbent.
				st.tryIncumbent(roundIntegral(p, rel.X), rel.Objective)
				continue
			}
			v := rel.X[branchVar]
			down := &node{parent: nd, j: branchVar, v: math.Floor(v), upper: true,
				bound: rel.Objective, seq: st.seq}
			up := &node{parent: nd, j: branchVar, v: math.Ceil(v), upper: false,
				bound: rel.Objective, seq: st.seq + 1}
			st.seq += 2
			st.open.Push(down)
			st.open.Push(up)
		}
	}

	// Compute the final global bound from the remaining open nodes.
	sol.BestBound = sol.Objective
	for _, nd := range st.open.Items() {
		if nd.bound < sol.BestBound {
			sol.BestBound = nd.bound
		}
	}

	if !budgetHit && st.open.Len() == 0 {
		if sol.Status == Feasible {
			sol.Status = Optimal
			sol.BestBound = sol.Objective
		} else {
			// The whole tree was explored without an integral incumbent.
			sol.Status = Infeasible
		}
	}
	return sol, nil
}

// pushBack returns unprocessed batch nodes to the open heap; their cached
// relaxation solutions ride along, so no work is repeated.
func (st *bbState) pushBack(nodes []*node) {
	for _, nd := range nodes {
		st.open.Push(nd)
	}
}

// tryIncumbent installs x (already integral-rounded) as the incumbent when
// it improves the objective.
func (st *bbState) tryIncumbent(x []float64, obj float64) {
	if obj < st.sol.Objective-1e-9 {
		st.sol.Objective = obj
		st.sol.X = x
		st.sol.Status = Feasible
		if st.opt.OnIncumbent != nil {
			st.opt.OnIncumbent(x, obj)
		}
	}
}

// solveNode materializes nd's bound chain and solves its LP relaxation with
// worker w's pooled simplex, whose rows were loaded once in Solve.
func (st *bbState) solveNode(w int, nd *node) (*lp.Solution, error) {
	if st.opt.DenseRowBounds {
		return st.solveNodeDense(w, nd)
	}
	lo, up := st.lo[w], st.up[w]
	copy(lo, st.baseLo)
	copy(up, st.baseUp)
	ch := st.chains[w][:0]
	for x := nd; x != nil && x.j >= 0; x = x.parent {
		ch = append(ch, x)
	}
	st.chains[w] = ch
	for _, b := range ch {
		if b.upper {
			if b.v < up[b.j] {
				up[b.j] = b.v
			}
		} else {
			if b.v > lo[b.j] {
				lo[b.j] = b.v
			}
		}
	}
	return st.solvers[w].SolveLoaded(lo, up)
}

// solveNodeDense is the retained legacy encoding: every branching bound
// becomes a dense single-variable row appended to the base model, in
// root-to-leaf order (the historical formulation).
func (st *bbState) solveNodeDense(w int, nd *node) (*lp.Solution, error) {
	ch := st.chains[w][:0]
	for x := nd; x != nil && x.j >= 0; x = x.parent {
		ch = append(ch, x)
	}
	st.chains[w] = ch
	d := &st.dense[w]
	rows := append(d.rows[:0], st.p.LP.Rows...)
	n := st.p.LP.NumVars
	for i := len(ch) - 1; i >= 0; i-- {
		b := ch[i]
		sense := lp.GE
		if b.upper {
			sense = lp.LE
		}
		rows = append(rows, lp.Constraint{Coef: d.coef(n, len(ch)-1-i, b.j), Sense: sense, RHS: b.v})
	}
	d.rows = rows[:0]
	sub := lp.Problem{NumVars: n, C: st.p.LP.C, Rows: rows, Lo: st.p.LP.Lo, Up: st.p.LP.Up}
	return st.solvers[w].Solve(&sub)
}

// mostFractional returns the integral variable farthest from an integer in
// x (most-fractional branching), or -1 when x is integral.
func mostFractional(p *Problem, x []float64) (int, float64) {
	branchVar, frac := -1, 0.0
	for j := 0; j < p.LP.NumVars; j++ {
		if !p.Integer[j] {
			continue
		}
		f := math.Abs(x[j] - math.Round(x[j]))
		if f > intTol && f > frac {
			branchVar, frac = j, f
		}
	}
	return branchVar, frac
}

// roundIntegral snaps integral variables to their nearest integers and
// returns a copy.
func roundIntegral(p *Problem, x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for j, isInt := range p.Integer {
		if isInt {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

// SortedFractionalVars is a test helper exposing branching order logic:
// indices of integral variables sorted by descending fractionality in x.
func SortedFractionalVars(p *Problem, x []float64) []int {
	var vars []int
	for j := range p.Integer {
		if p.Integer[j] {
			if f := math.Abs(x[j] - math.Round(x[j])); f > intTol {
				vars = append(vars, j)
			}
		}
	}
	sort.Slice(vars, func(a, b int) bool {
		fa := math.Abs(x[vars[a]] - math.Round(x[vars[a]]))
		fb := math.Abs(x[vars[b]] - math.Round(x[vars[b]]))
		return fa > fb
	})
	return vars
}
