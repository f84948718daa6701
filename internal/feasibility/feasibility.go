// Package feasibility implements the non-preemptive schedulability theory
// the paper builds on: Theorem 1 of Jeffay, Stanat and Martel (RTSS 1991)
// for periodic tasks on a uniprocessor, the per-condition scaling factors γ
// of §III, and the individual slack ψ_{i,j} = (γ_min − 1)·x_i that EDF+ESR
// reclaims online.
//
// Condition (1): Σ w_i/p_i ≤ 1.
// Condition (2): for every task i > 1 (tasks sorted by non-decreasing
// period) and every integer L with p_1 < L < p_i,
//
//	w_i + Σ_{j<i} ⌊(L−1)/p_j⌋ · w_j ≤ L.
//
// The check is exact integer arithmetic and pseudo-polynomial (O(n·p_n)),
// exactly as in the paper.
package feasibility

import (
	"fmt"
	"math"
	"slices"

	"nprt/internal/task"
)

// Mode selects which WCET column the analysis uses.
func wcet(t *task.Task, m task.Mode) task.Time { return t.WCET(m) }

// Violation describes one failed Theorem-1 condition.
type Violation struct {
	Condition int       // 1 or 2
	TaskIndex int       // i (0-based, period-sorted) for condition 2; -1 for condition 1
	L         task.Time // interval length for condition 2; 0 for condition 1
	Demand    task.Time // left-hand side of condition 2, 0 for condition 1
	Util      float64   // utilization for condition 1
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	if v.Condition == 1 {
		return fmt.Sprintf("condition 1: utilization %.4f > 1", v.Util)
	}
	return fmt.Sprintf("condition 2: task %d, L=%d, demand %d > L", v.TaskIndex, v.L, v.Demand)
}

// Report is the full result of a Theorem-1 check.
type Report struct {
	Schedulable bool
	Utilization float64
	Violations  []Violation // empty when schedulable; first few when not

	// GammaUtil is γ from condition 1 (1/utilization); GammaMin is the
	// minimum over γ and every γ_i^L. When the set is schedulable in the
	// analyzed mode, GammaMin >= 1.
	GammaUtil float64
	GammaMin  float64

	// ArgMin records which condition produced GammaMin (diagnostics).
	ArgMinTask int
	ArgMinL    task.Time
}

// maxViolationsKept bounds Report.Violations so a wildly infeasible set does
// not allocate one record per L.
const maxViolationsKept = 16

// Check runs Theorem 1 on the set with every job in the given mode and also
// computes the scaling factors γ of §III. Tasks in the set are already
// period-sorted by construction (task.New).
func Check(s *task.Set, m task.Mode) Report {
	var rep [1]Report
	check(s, []task.Mode{m}, rep[:])
	return rep[0]
}

// check runs Check once per mode, reps[k] for modes[k]. The condition-2
// step points depend only on the periods, so each row's are built once
// and scanned for every mode; each report is computed by exactly the
// operations a lone Check performs, so it is bit-identical to one.
func check(s *task.Set, modes []task.Mode, reps []Report) {
	n := s.Len()
	// Row-major WCET table: w[k*n+j] is task j's WCET in modes[k].
	w := make([]task.Time, len(modes)*n)
	for k, m := range modes {
		rep := &reps[k]
		*rep = Report{Schedulable: true, ArgMinTask: -1}

		// Condition (1) and γ from it.
		u := 0.0
		for i := 0; i < n; i++ {
			t := s.Task(i)
			w[k*n+i] = wcet(t, m)
			u += float64(w[k*n+i]) / float64(t.Period)
		}
		rep.Utilization = u
		rep.GammaUtil = math.Inf(1)
		if u > 0 {
			rep.GammaUtil = 1 / u
		}
		rep.GammaMin = rep.GammaUtil
		if u > 1 {
			rep.Schedulable = false
			rep.Violations = append(rep.Violations, Violation{Condition: 1, TaskIndex: -1, Util: u})
		}
	}

	// Condition (2) and the γ_i^L family, evaluated only at the demand step
	// points. The left-hand side is piecewise constant in L, jumping at
	// L = k·p_j + 1, while both the right-hand side L and γ = L/demand grow
	// strictly within each plateau — so the binding comparison and the γ
	// minimum of every plateau sit at its first L. Visiting plateau starts in
	// ascending order therefore reproduces the exhaustive scan bit for bit
	// (the same GammaMin at the same first-attaining ArgMinL), and the
	// violation list is reconstructed exactly by expanding the violating
	// prefix of each plateau: demand d > L holds precisely for L ≤ d−1.
	// checkExhaustive retains the unit-stride scan as the differential oracle.
	p1 := s.Task(0).Period
	var steps []task.Time // plateau starts, reused across rows
	for i := 1; i < n; i++ {
		ti := s.Task(i)
		if ti.Period < p1+2 {
			continue // interval (p_1, p_i) holds no integer L
		}
		steps = steps[:0]
		steps = append(steps, p1+1)
		for j := 0; j < i; j++ {
			pj := s.Task(j).Period
			for L := pj + 1; L < ti.Period; L += pj {
				if L <= p1+1 {
					continue
				}
				steps = append(steps, L)
			}
		}
		slices.Sort(steps)
		uniq := slices.Compact(steps)
		for k := range modes {
			rep, wk := &reps[k], w[k*n:(k+1)*n]
			for si, L := range uniq {
				demand := wk[i]
				for j := 0; j < i; j++ {
					demand += (L - 1) / s.Task(j).Period * wk[j]
				}
				if demand > L {
					rep.Schedulable = false
					// Every L' in [L, min(plateauEnd, demand−1)] violates with
					// the same constant demand; emit them all, as the
					// exhaustive scan would, up to the report cap.
					end := ti.Period - 1
					if si+1 < len(uniq) {
						end = uniq[si+1] - 1
					}
					if v := demand - 1; v < end {
						end = v
					}
					for lv := L; lv <= end && len(rep.Violations) < maxViolationsKept; lv++ {
						rep.Violations = append(rep.Violations,
							Violation{Condition: 2, TaskIndex: i, L: lv, Demand: demand})
					}
				}
				if demand > 0 {
					if g := float64(L) / float64(demand); g < rep.GammaMin {
						rep.GammaMin = g
						rep.ArgMinTask = i
						rep.ArgMinL = L
					}
				}
			}
		}
	}
}

// checkExhaustive is the original unit-stride Theorem-1 scan over every
// integer L in (p_1, p_i). It is retained solely as the oracle for the
// differential tests proving the step-point Check identical.
func checkExhaustive(s *task.Set, m task.Mode) Report {
	n := s.Len()
	rep := Report{Schedulable: true, ArgMinTask: -1}

	u := 0.0
	for i := 0; i < n; i++ {
		t := s.Task(i)
		u += float64(wcet(t, m)) / float64(t.Period)
	}
	rep.Utilization = u
	rep.GammaUtil = math.Inf(1)
	if u > 0 {
		rep.GammaUtil = 1 / u
	}
	rep.GammaMin = rep.GammaUtil
	if u > 1 {
		rep.Schedulable = false
		rep.Violations = append(rep.Violations, Violation{Condition: 1, TaskIndex: -1, Util: u})
	}

	p1 := s.Task(0).Period
	for i := 1; i < n; i++ {
		ti := s.Task(i)
		for L := p1 + 1; L < ti.Period; L++ {
			demand := wcet(ti, m)
			for j := 0; j < i; j++ {
				tj := s.Task(j)
				demand += (L - 1) / tj.Period * wcet(tj, m)
			}
			if demand > L {
				rep.Schedulable = false
				if len(rep.Violations) < maxViolationsKept {
					rep.Violations = append(rep.Violations,
						Violation{Condition: 2, TaskIndex: i, L: L, Demand: demand})
				}
			}
			if demand > 0 {
				if g := float64(L) / float64(demand); g < rep.GammaMin {
					rep.GammaMin = g
					rep.ArgMinTask = i
					rep.ArgMinL = L
				}
			}
		}
	}
	return rep
}

// Schedulable is a convenience wrapper returning only the verdict.
func Schedulable(s *task.Set, m task.Mode) bool {
	return Check(s, m).Schedulable
}

// Profiles runs Theorem 1 in both admission profiles: every job accurate,
// and every job at its deepest imprecise level — the profile whose pass
// underwrites the EDF+ESR zero-miss guarantee. The runtime admission
// controller (internal/runtime) screens every Add/Remove against this pair:
// accurate-pass means full admission, deepest-only-pass means admission in a
// degraded (imprecision-reliant) regime, deepest-fail means rejection.
// The two reports are bit-identical to Check(s, Accurate) and
// Check(s, Deepest); the step points are built once for both.
func Profiles(s *task.Set) (accurate, deepest Report) {
	var reps [2]Report
	check(s, []task.Mode{task.Accurate, task.Deepest}, reps[:])
	return reps[0], reps[1]
}

// FastSchedulable evaluates Theorem 1 checking condition (2) only at its
// step points. The left-hand side w_i + Σ ⌊(L−1)/p_j⌋·w_j is piecewise
// constant in L and only jumps at L = k·p_j + 1, while the right-hand side
// grows with L — so within each plateau the binding comparison is at the
// plateau's first L. Checking the step points (plus the interval's lower
// boundary p_1 + 1) is therefore exact, and reduces the scan from O(p_n)
// values of L to O(Σ p_i/p_j) of them. Equivalence with Check is fuzzed in
// the package tests.
func FastSchedulable(s *task.Set, m task.Mode) bool {
	n := s.Len()
	u := 0.0
	for i := 0; i < n; i++ {
		t := s.Task(i)
		u += float64(wcet(t, m)) / float64(t.Period)
	}
	if u > 1 {
		return false
	}
	p1 := s.Task(0).Period
	for i := 1; i < n; i++ {
		ti := s.Task(i)
		demandAt := func(L task.Time) task.Time {
			demand := wcet(ti, m)
			for j := 0; j < i; j++ {
				tj := s.Task(j)
				demand += (L - 1) / tj.Period * wcet(tj, m)
			}
			return demand
		}
		// Candidate L values: interval start and each step point.
		if L := p1 + 1; L < ti.Period && demandAt(L) > L {
			return false
		}
		for j := 0; j < i; j++ {
			pj := s.Task(j).Period
			for L := pj + 1; L < ti.Period; L += pj {
				if L <= p1+1 {
					continue
				}
				if demandAt(L) > L {
					return false
				}
			}
		}
	}
	return true
}

// IndividualSlacks returns ψ_i = (γ_min − 1)·x_i for every task, computed
// from the deepest-imprecision analysis: the slack every job intrinsically
// owns because the schedulability conditions hold with margin γ_min. For
// tasks with the paper's single imprecision level this is exactly the
// imprecise-mode analysis. When the set is not schedulable even at the
// deepest levels (γ_min < 1) all slacks are zero — EDF+ESR then has no
// offline guarantee and runs purely best-effort.
func IndividualSlacks(s *task.Set) []task.Time {
	rep := Check(s, task.Deepest)
	out := make([]task.Time, s.Len())
	if rep.GammaMin <= 1 {
		return out
	}
	margin := rep.GammaMin - 1
	for i := 0; i < s.Len(); i++ {
		out[i] = task.Time(margin * float64(s.Task(i).WCET(task.Deepest)))
	}
	return out
}

// DemandCurve returns, for diagnostic and test purposes, the condition-2
// demand of task i at each L in (p_1, p_i) as parallel slices. Task i must
// have index >= 1.
func DemandCurve(s *task.Set, i int, m task.Mode) (ls []task.Time, demands []task.Time) {
	if i <= 0 || i >= s.Len() {
		return nil, nil
	}
	p1 := s.Task(0).Period
	ti := s.Task(i)
	for L := p1 + 1; L < ti.Period; L++ {
		demand := wcet(ti, m)
		for j := 0; j < i; j++ {
			tj := s.Task(j)
			demand += (L - 1) / tj.Period * wcet(tj, m)
		}
		ls = append(ls, L)
		demands = append(demands, demand)
	}
	return ls, demands
}
