// Package task defines the periodic task model used throughout nprt:
// tasks with accurate and imprecise worst-case execution times, the jobs
// they release, hyper-period and super-period arithmetic, and validation.
//
// All times are virtual microseconds held in int64 (Time). Keeping time
// integral makes the schedulability conditions of Jeffay et al. and the
// offline optimizers exact; there is no floating-point drift anywhere in
// the feasibility math.
package task

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// Time is a point or duration on the virtual timeline, in microseconds.
type Time = int64

// Mode is the accuracy level of one job execution. A non-preemptive job
// commits to its mode when it starts and cannot change mid-flight.
type Mode uint8

const (
	// Accurate runs the full computation: WCET w_i, zero error.
	Accurate Mode = iota
	// Imprecise runs the reduced computation: WCET x_i < w_i, and the
	// execution produces a single-valued error with task-specific statistics.
	Imprecise
)

// Deepest selects each task's most imprecise level. The paper notes that
// additional imprecision levels do not change its algorithms structurally
// (§II-C); tasks may declare ExtraLevels beyond Imprecise, and mode values
// 2, 3, … address them. Deepest clamps to whatever each task declares, so
// it is the safe "all-in imprecision" mode for feasibility analysis.
const Deepest Mode = 255

// String returns "accurate", "imprecise" or "level<k>".
func (m Mode) String() string {
	switch m {
	case Accurate:
		return "accurate"
	case Imprecise:
		return "imprecise"
	case Deepest:
		return "deepest"
	default:
		return fmt.Sprintf("level%d", uint8(m))
	}
}

// Level is one additional imprecision level beyond Imprecise: a smaller
// WCET traded for a larger error.
type Level struct {
	WCET  Time
	Exec  Dist // actual execution time distribution (optional)
	Error Dist // error statistics of one execution at this level
}

// Dist describes the distribution of a random, truncated-Gaussian quantity
// such as an actual execution time or an imprecision error. Sampling is done
// by internal/rng; the task package only carries the parameters so that a
// task set is a plain value with no behavioural dependencies.
type Dist struct {
	Mean  float64 // mean of the underlying Gaussian
	Sigma float64 // standard deviation of the underlying Gaussian
	Min   float64 // lower truncation bound (inclusive)
	Max   float64 // upper truncation bound (inclusive); Max<=Min disables truncation above
}

// IsZero reports whether the distribution is entirely unset.
func (d Dist) IsZero() bool {
	return d == Dist{}
}

// Task is one periodic task τ_i. Its jobs are released every Period starting
// at Release, and each job's deadline is the next release (implicit-deadline
// periodic model, exactly the model of the paper: d_{i,j} = r_{i,j} + p_i =
// r_{i,j+1}).
type Task struct {
	ID   int    // dense index, assigned by the Set
	Name string // human-readable label, e.g. "idct-1080p"

	Period  Time // p_i > 0
	Release Time // r_{i,1} >= 0, first release (phase)

	// Worst-case execution times per mode. 0 < WCETImprecise < WCETAccurate.
	WCETAccurate  Time // w_i
	WCETImprecise Time // x_i

	// Actual execution time distributions per mode (virtual microseconds).
	// If unset, execution is deterministic at the mode's WCET.
	ExecAccurate  Dist
	ExecImprecise Dist

	// Error statistics of one imprecise execution. Error.Mean is e_i, the
	// pre-characterized mean error used by the offline optimizers. Accurate
	// executions never incur error.
	Error Dist

	// MaxConsecutiveImprecise is B_i for the cumulative-error model
	// (Problem 2): the number of consecutive jobs in imprecise mode must not
	// exceed it. Zero means the task has no cumulative constraint
	// (independent-error model).
	MaxConsecutiveImprecise int

	// ExtraLevels are additional imprecision levels beyond Imprecise, in
	// strictly decreasing WCET order (mode 2 addresses ExtraLevels[0], and
	// so on). Most of the paper uses a single imprecision level; the
	// multi-level generalization it sketches in §II-C is supported by the
	// ESR and offline-DP schedulers.
	ExtraLevels []Level
}

// NumModes returns the number of accuracy levels the task declares
// (2 for the paper's standard accurate/imprecise pair).
func (t *Task) NumModes() int { return 2 + len(t.ExtraLevels) }

// ClampMode maps any mode (including Deepest) onto a level the task
// declares.
func (t *Task) ClampMode(m Mode) Mode {
	if m == Accurate {
		return Accurate
	}
	if max := Mode(t.NumModes() - 1); m > max {
		return max
	}
	return m
}

// WCET returns the worst-case execution time for the given mode, clamped to
// the task's deepest declared level.
func (t *Task) WCET(m Mode) Time {
	switch m = t.ClampMode(m); m {
	case Accurate:
		return t.WCETAccurate
	case Imprecise:
		return t.WCETImprecise
	default:
		return t.ExtraLevels[int(m)-2].WCET
	}
}

// ExecDist returns the actual-execution-time distribution for a mode
// (clamped like WCET).
func (t *Task) ExecDist(m Mode) Dist {
	switch m = t.ClampMode(m); m {
	case Accurate:
		return t.ExecAccurate
	case Imprecise:
		return t.ExecImprecise
	default:
		return t.ExtraLevels[int(m)-2].Exec
	}
}

// ErrorDist returns the error distribution of one execution at the given
// mode: the zero distribution for accurate runs, Error for Imprecise, and
// the level's own statistics beyond that.
func (t *Task) ErrorDist(m Mode) Dist {
	switch m = t.ClampMode(m); m {
	case Accurate:
		return Dist{}
	case Imprecise:
		return t.Error
	default:
		return t.ExtraLevels[int(m)-2].Error
	}
}

// MeanError returns e_i, the pre-characterized mean imprecision error.
func (t *Task) MeanError() float64 { return t.Error.Mean }

// UtilizationAccurate returns w_i/p_i.
func (t *Task) UtilizationAccurate() float64 {
	return float64(t.WCETAccurate) / float64(t.Period)
}

// UtilizationImprecise returns x_i/p_i.
func (t *Task) UtilizationImprecise() float64 {
	return float64(t.WCETImprecise) / float64(t.Period)
}

// Sentinel validation errors. Validate (and therefore New) wraps each
// rejection around one of these, so callers that screen external input — the
// CLI front-ends mapping to exit codes, the runtime admission controller
// building structured verdicts — can classify failures with errors.Is
// instead of parsing messages.
var (
	// ErrNonPositivePeriod rejects p_i <= 0.
	ErrNonPositivePeriod = errors.New("period must be positive")
	// ErrNegativeRelease rejects r_{i,1} < 0.
	ErrNegativeRelease = errors.New("release must be non-negative")
	// ErrNonPositiveWCET rejects w_i <= 0 or x_i <= 0.
	ErrNonPositiveWCET = errors.New("WCET must be positive")
	// ErrModeOrder rejects x_i >= w_i: the imprecise level must be a strict
	// reduction or the mode pair is meaningless.
	ErrModeOrder = errors.New("imprecise WCET must be below accurate WCET")
	// ErrWCETExceedsPeriod rejects w_i > p_i (the job could never meet its
	// implicit deadline even alone on the processor).
	ErrWCETExceedsPeriod = errors.New("WCET exceeds period")
	// ErrBadName rejects names with control characters, which would corrupt
	// CSV artifacts and log lines.
	ErrBadName = errors.New("name contains control character")
	// ErrBadStatistic rejects negative error means and malformed
	// consecutive-imprecise budgets.
	ErrBadStatistic = errors.New("invalid task statistic")
	// ErrBadLevel rejects extra imprecision levels that are not strictly
	// decreasing in WCET or carry negative error means.
	ErrBadLevel = errors.New("invalid extra imprecision level")
)

// Validate reports the first modelling error in the task, if any. Every
// rejection wraps one of the sentinel errors above.
func (t *Task) Validate() error {
	switch {
	case t.Period <= 0:
		return fmt.Errorf("task %q: period %d: %w", t.Name, t.Period, ErrNonPositivePeriod)
	case t.Release < 0:
		return fmt.Errorf("task %q: release %d: %w", t.Name, t.Release, ErrNegativeRelease)
	case t.WCETAccurate <= 0:
		return fmt.Errorf("task %q: accurate WCET %d: %w", t.Name, t.WCETAccurate, ErrNonPositiveWCET)
	case t.WCETImprecise <= 0:
		return fmt.Errorf("task %q: imprecise WCET %d: %w", t.Name, t.WCETImprecise, ErrNonPositiveWCET)
	case t.WCETImprecise >= t.WCETAccurate:
		return fmt.Errorf("task %q: imprecise WCET %d vs accurate WCET %d: %w",
			t.Name, t.WCETImprecise, t.WCETAccurate, ErrModeOrder)
	case t.WCETAccurate > t.Period:
		return fmt.Errorf("task %q: accurate WCET %d exceeds period %d (job can never meet its deadline): %w",
			t.Name, t.WCETAccurate, t.Period, ErrWCETExceedsPeriod)
	case t.MaxConsecutiveImprecise < 0:
		return fmt.Errorf("task %q: MaxConsecutiveImprecise %d must be non-negative: %w",
			t.Name, t.MaxConsecutiveImprecise, ErrBadStatistic)
	case t.Error.Mean < 0:
		return fmt.Errorf("task %q: mean error %g must be non-negative: %w",
			t.Name, t.Error.Mean, ErrBadStatistic)
	}
	// Names flow into CSV artifacts and log lines unescaped; control
	// characters (found by fuzzing the JSON loader) would corrupt both.
	for _, r := range t.Name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("task %q: %w %q", t.Name, ErrBadName, r)
		}
	}
	prev := t.WCETImprecise
	for i, lv := range t.ExtraLevels {
		if lv.WCET < 1 || lv.WCET >= prev {
			return fmt.Errorf("task %q: extra level %d WCET %d must be in [1, %d): %w",
				t.Name, i, lv.WCET, prev, ErrBadLevel)
		}
		if lv.Error.Mean < 0 {
			return fmt.Errorf("task %q: extra level %d mean error %g must be non-negative: %w",
				t.Name, i, lv.Error.Mean, ErrBadLevel)
		}
		prev = lv.WCET
	}
	return nil
}

// Job is the j-th occurrence τ_{i,j} of a periodic task. Jobs are values;
// identity is (TaskID, Index).
type Job struct {
	TaskID   int
	Index    int  // 0-based occurrence number j
	Release  Time // r_{i,j} = r_{i,1} + j*p_i
	Deadline Time // d_{i,j} = r_{i,j} + p_i
}

// Key returns a compact unique identity for the job.
func (j Job) Key() JobKey { return JobKey{TaskID: j.TaskID, Index: j.Index} }

// String renders the job as "τ(task,index)[r,d)".
func (j Job) String() string {
	return fmt.Sprintf("τ(%d,%d)[%d,%d)", j.TaskID, j.Index, j.Release, j.Deadline)
}

// JobKey identifies a job without its timing data.
type JobKey struct {
	TaskID int
	Index  int
}

// Set is an immutable-by-convention collection of periodic tasks sorted by
// non-decreasing period, the order required by Theorem 1. Construct with New.
type Set struct {
	tasks []Task
	hyper Time
}

// ErrEmptySet is returned when constructing a Set with no tasks.
var ErrEmptySet = errors.New("task: empty task set")

// New validates the tasks, sorts them by non-decreasing period (stable, so
// callers' relative order of equal periods is kept), assigns dense IDs in
// the sorted order, and computes the hyper-period.
func New(tasks []Task) (*Set, error) {
	if len(tasks) == 0 {
		return nil, ErrEmptySet
	}
	// Stable-sort a permutation and copy each Task once: sorting the Task
	// structs themselves would swap whole records through reflection.
	perm := make([]int32, len(tasks))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		return cmp.Compare(tasks[a].Period, tasks[b].Period)
	})
	ts := make([]Task, len(tasks))
	for i, k := range perm {
		ts[i] = tasks[k]
	}
	hyper := Time(1)
	for i := range ts {
		if ts[i].Name == "" {
			ts[i].Name = fmt.Sprintf("task%d", i)
		}
		ts[i].ID = i
		if err := ts[i].Validate(); err != nil {
			return nil, err
		}
		hyper = LCM(hyper, ts[i].Period)
		if hyper <= 0 {
			return nil, fmt.Errorf("task: hyper-period overflows int64 at task %q", ts[i].Name)
		}
	}
	return &Set{tasks: ts, hyper: hyper}, nil
}

// MustNew is New but panics on error. It exists for tests and for
// package-internal tables whose contents are compile-time constants, where a
// validation failure is a bug in this repository rather than a runtime
// condition. Code handling external input — JSON files, generator output,
// anything a user can influence — must call New and propagate the error
// instead; the CLI front-ends map those errors to an "invalid input" exit
// code rather than a crash.
func MustNew(tasks []Task) *Set {
	s, err := New(tasks)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of tasks.
func (s *Set) Len() int { return len(s.tasks) }

// Task returns the i-th task (sorted by period). The pointer aliases the
// set's storage; callers must not mutate it.
func (s *Set) Task(i int) *Task { return &s.tasks[i] }

// Tasks returns the underlying slice (sorted by period). Read-only.
func (s *Set) Tasks() []Task { return s.tasks }

// Hyperperiod returns P = lcm(p_1..p_n).
func (s *Set) Hyperperiod() Time { return s.hyper }

// MaxRelease returns the latest first-release among the tasks.
func (s *Set) MaxRelease() Time {
	var m Time
	for i := range s.tasks {
		if s.tasks[i].Release > m {
			m = s.tasks[i].Release
		}
	}
	return m
}

// UtilizationAccurate returns Σ w_i/p_i.
func (s *Set) UtilizationAccurate() float64 {
	u := 0.0
	for i := range s.tasks {
		u += s.tasks[i].UtilizationAccurate()
	}
	return u
}

// UtilizationImprecise returns Σ x_i/p_i.
func (s *Set) UtilizationImprecise() float64 {
	u := 0.0
	for i := range s.tasks {
		u += s.tasks[i].UtilizationImprecise()
	}
	return u
}

// JobsPerHyperperiod returns Σ P/p_i, the number of jobs in one hyper-period.
func (s *Set) JobsPerHyperperiod() int {
	n := 0
	for i := range s.tasks {
		n += int(s.hyper / s.tasks[i].Period)
	}
	return n
}

// Job materializes job τ_{taskID, index}.
func (s *Set) Job(taskID, index int) Job {
	t := &s.tasks[taskID]
	r := t.Release + Time(index)*t.Period
	return Job{TaskID: taskID, Index: index, Release: r, Deadline: r + t.Period}
}

// JobsWithin returns every job whose [release, deadline] window lies entirely
// inside [from, to], sorted by (release, deadline, task). This is the job
// population "∀ τ_{i,j} | [r_{i,j}, d_{i,j}] ⊆ [0, P]" used by the offline
// formulations when called as JobsWithin(0, P).
func (s *Set) JobsWithin(from, to Time) []Job {
	var jobs []Job
	for i := range s.tasks {
		t := &s.tasks[i]
		// First index with release >= from.
		j := 0
		if t.Release < from {
			j = int((from - t.Release + t.Period - 1) / t.Period)
		}
		for {
			jb := s.Job(i, j)
			if jb.Deadline > to {
				break
			}
			jobs = append(jobs, jb)
			j++
		}
	}
	SortJobs(jobs)
	return jobs
}

// SortJobs orders jobs by (release, deadline, taskID, index): the canonical
// traversal order used by the offline schedulers.
func SortJobs(jobs []Job) {
	sort.Slice(jobs, func(a, b int) bool {
		ja, jb := jobs[a], jobs[b]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		if ja.Deadline != jb.Deadline {
			return ja.Deadline < jb.Deadline
		}
		if ja.TaskID != jb.TaskID {
			return ja.TaskID < jb.TaskID
		}
		return ja.Index < jb.Index
	})
}

// SuperPeriod returns the super period of §V-B: the minimum whole number of
// hyper-periods covering all phases of every task's consecutive-imprecise
// budget, i.e. P · lcm_i(B_i + 1) over tasks with a cumulative constraint.
// maxFactor caps the multiplier (0 means no cap); the capped flag reports
// whether the cap was hit.
func (s *Set) SuperPeriod(maxFactor int64) (sp Time, factor int64, capped bool) {
	factor = 1
	for i := range s.tasks {
		b := s.tasks[i].MaxConsecutiveImprecise
		if b <= 0 {
			continue
		}
		factor = LCM(factor, int64(b)+1)
		if maxFactor > 0 && factor > maxFactor {
			return s.hyper * maxFactor, maxFactor, true
		}
	}
	return s.hyper * factor, factor, false
}

// Scale returns a copy of the set with every WCET and execution-time
// distribution multiplied by k (a utilization-scaling knob for the
// error-vs-utilization sweeps). Periods, releases and error statistics are
// unchanged. Scaled WCETs are clamped to at least 1 and imprecise strictly
// below accurate.
func (s *Set) Scale(k float64) (*Set, error) {
	ts := make([]Task, len(s.tasks))
	copy(ts, s.tasks)
	for i := range ts {
		ts[i].WCETAccurate = scaleTime(ts[i].WCETAccurate, k)
		ts[i].WCETImprecise = scaleTime(ts[i].WCETImprecise, k)
		if ts[i].WCETImprecise >= ts[i].WCETAccurate {
			ts[i].WCETImprecise = ts[i].WCETAccurate - 1
		}
		if ts[i].WCETImprecise <= 0 {
			ts[i].WCETImprecise = 1
			if ts[i].WCETAccurate <= 1 {
				ts[i].WCETAccurate = 2
			}
		}
		ts[i].ExecAccurate = scaleDist(ts[i].ExecAccurate, k)
		ts[i].ExecImprecise = scaleDist(ts[i].ExecImprecise, k)
		if len(ts[i].ExtraLevels) > 0 {
			levels := make([]Level, len(ts[i].ExtraLevels))
			copy(levels, ts[i].ExtraLevels)
			prev := ts[i].WCETImprecise
			for l := range levels {
				levels[l].WCET = scaleTime(levels[l].WCET, k)
				if levels[l].WCET >= prev {
					levels[l].WCET = prev - 1
				}
				if levels[l].WCET < 1 {
					levels[l].WCET = 1
					// Keep strict decrease by nudging shallower levels up.
					if prev <= 1 {
						return nil, fmt.Errorf("task: scaling %q by %g collapses its levels", ts[i].Name, k)
					}
				}
				levels[l].Exec = scaleDist(levels[l].Exec, k)
				prev = levels[l].WCET
			}
			ts[i].ExtraLevels = levels
		}
	}
	return New(ts)
}

func scaleTime(t Time, k float64) Time {
	v := Time(float64(t)*k + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

func scaleDist(d Dist, k float64) Dist {
	if d.IsZero() {
		return d
	}
	return Dist{Mean: d.Mean * k, Sigma: d.Sigma * k, Min: d.Min * k, Max: d.Max * k}
}

// String renders a short multi-line summary of the set.
func (s *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "taskset{n=%d P=%d U_acc=%.3f U_imp=%.3f}\n",
		len(s.tasks), s.hyper, s.UtilizationAccurate(), s.UtilizationImprecise())
	for i := range s.tasks {
		t := &s.tasks[i]
		fmt.Fprintf(&b, "  %-14s p=%-8d w=%-7d x=%-7d e=%-8.3g B=%d\n",
			t.Name, t.Period, t.WCETAccurate, t.WCETImprecise, t.Error.Mean,
			t.MaxConsecutiveImprecise)
	}
	return b.String()
}

// DecodeJSON reads a JSON array of Task values from r and builds a Set.
// Unknown fields are rejected to catch typos in hand-written files.
func DecodeJSON(r io.Reader) (*Set, error) {
	var tasks []Task
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tasks); err != nil {
		return nil, fmt.Errorf("task: decoding task set: %w", err)
	}
	return New(tasks)
}

// EncodeJSON writes the set's tasks as an indented JSON array.
func (s *Set) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.tasks)
}

// GCD returns the greatest common divisor of two positive times.
func GCD(a, b Time) Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of two positive times, or 0 when an
// input is non-positive or the result would overflow int64 (checked by New).
func LCM(a, b Time) Time {
	if a <= 0 || b <= 0 {
		return 0
	}
	q := a / GCD(a, b)
	if q > math.MaxInt64/b {
		return 0
	}
	return q * b
}
