package feasibility_test

import (
	"math/rand"
	"reflect"
	"testing"

	"nprt/internal/feasibility"
	"nprt/internal/task"
	"nprt/internal/workload"
)

// reportsEqual compares every field of two Reports, including the full
// violation lists.
func reportsEqual(a, b feasibility.Report) bool {
	if a.Schedulable != b.Schedulable || a.Utilization != b.Utilization ||
		a.GammaUtil != b.GammaUtil || a.GammaMin != b.GammaMin ||
		a.ArgMinTask != b.ArgMinTask || a.ArgMinL != b.ArgMinL ||
		len(a.Violations) != len(b.Violations) {
		return false
	}
	for i := range a.Violations {
		if a.Violations[i] != b.Violations[i] {
			return false
		}
	}
	return true
}

// The step-point Check must reproduce the unit-stride oracle bit for bit on
// every Table-I set in every mode.
func TestCheckStepPointMatchesExhaustiveTableI(t *testing.T) {
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatalf("CachedCases: %v", err)
	}
	modes := []task.Mode{task.Accurate, task.Imprecise, task.Deepest}
	for _, c := range cases {
		s, err := c.Set()
		if err != nil {
			t.Fatalf("case %s: %v", c.Name, err)
		}
		for _, m := range modes {
			got := feasibility.Check(s, m)
			want := feasibility.CheckExhaustive(s, m)
			if !reportsEqual(got, want) {
				t.Errorf("case %s mode %d: step-point Check diverges:\n got %+v\nwant %+v",
					c.Name, m, got, want)
			}
		}
	}
}

// Random sets, including infeasible ones with long violation runs and
// equal-period ties.
func TestCheckStepPointMatchesExhaustiveRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rnd.Intn(4)
		tasks := make([]task.Task, n)
		for i := range tasks {
			p := task.Time(3 + rnd.Intn(120))
			if i > 0 && rnd.Intn(4) == 0 {
				p = tasks[i-1].Period // force period ties
			}
			w := task.Time(1 + rnd.Intn(int(p)+4)) // may exceed p: infeasible draws
			x := w / 2
			if x < 1 {
				x = 1
			}
			if x >= w {
				w = x + 1
			}
			tasks[i] = task.Task{Name: "r", Period: p, WCETAccurate: w, WCETImprecise: x}
		}
		s, err := task.New(tasks)
		if err != nil {
			continue
		}
		for _, m := range []task.Mode{task.Accurate, task.Deepest} {
			got := feasibility.Check(s, m)
			want := feasibility.CheckExhaustive(s, m)
			if !reportsEqual(got, want) {
				t.Fatalf("trial %d mode %d: diverges for %v:\n got %+v\nwant %+v",
					trial, m, tasks, got, want)
			}
		}
	}
}

// probeOracle is what Incremental.Probe promises to match: the verdicts of
// a full Profiles run over task.New(existing specs in insertion order, then
// the candidate appended) — exactly how runtime.Add builds its candidate
// set. The bool reports whether the oracle is defined (task.New succeeded).
func probeOracle(t *testing.T, specs []task.Task, c task.Task) (accOK, deepOK, ok bool) {
	t.Helper()
	cand := append(append([]task.Task(nil), specs...), c)
	s, err := task.New(cand)
	if err != nil {
		return false, false, false
	}
	acc, deep := feasibility.Profiles(s)
	return acc.Schedulable, deep.Schedulable, true
}

func checkProbe(t *testing.T, inc *feasibility.Incremental, specs []task.Task, c task.Task, ctx string) {
	t.Helper()
	wantA, wantD, ok := probeOracle(t, specs, c)
	if !ok {
		return
	}
	gotA, gotD := inc.Probe(&c)
	if gotA != wantA || gotD != wantD {
		t.Fatalf("%s: Probe(%+v) = (%v,%v), Profiles oracle = (%v,%v); resident %v",
			ctx, c, gotA, gotD, wantA, wantD, specs)
	}
}

// Every Table-I set, admitted one task at a time: each probe must match the
// full-recomputation oracle, both for the task about to be admitted and for
// a few synthetic rejectable candidates.
func TestIncrementalProbeMatchesProfilesTableI(t *testing.T) {
	cases, err := workload.CachedCases()
	if err != nil {
		t.Fatalf("CachedCases: %v", err)
	}
	for _, c := range cases {
		s, err := c.Set()
		if err != nil {
			t.Fatalf("case %s: %v", c.Name, err)
		}
		inc := feasibility.NewIncremental(nil)
		var specs []task.Task
		for i := 0; i < s.Len(); i++ {
			tk := *s.Task(i)
			checkProbe(t, inc, specs, tk, c.Name)
			// A hog candidate that should usually fail, and a short-period
			// candidate exercising the new-first-task fallback.
			hog := task.Task{Name: "hog", Period: tk.Period,
				WCETAccurate: tk.Period, WCETImprecise: tk.Period / 2}
			if hog.WCETImprecise < 1 {
				hog.WCETImprecise = 1
			}
			checkProbe(t, inc, specs, hog, c.Name+"/hog")
			tiny := task.Task{Name: "tiny", Period: 2, WCETAccurate: 1, WCETImprecise: 1}
			checkProbe(t, inc, specs, tiny, c.Name+"/tiny")

			inc.Add(&tk)
			specs = append(specs, tk)
		}
		if inc.Len() != s.Len() {
			t.Fatalf("case %s: cache holds %d tasks, want %d", c.Name, inc.Len(), s.Len())
		}
	}
}

// Seeded churn: adds (committed or not) and removes in random order, with
// period ties, degraded residents (accurate-infeasible but deepest-feasible
// sets), and utilization checks along the way.
func TestIncrementalProbeMatchesProfilesRandomChurn(t *testing.T) {
	rnd := rand.New(rand.NewSource(929))
	for trial := 0; trial < 60; trial++ {
		inc := feasibility.NewIncremental(nil)
		var specs []task.Task
		id := 0
		for step := 0; step < 40; step++ {
			if len(specs) > 0 && rnd.Intn(3) == 0 {
				victim := rnd.Intn(len(specs))
				name := specs[victim].Name
				if !inc.Remove(name) {
					t.Fatalf("trial %d: Remove(%q) reported absent", trial, name)
				}
				specs = append(specs[:victim], specs[victim+1:]...)
				continue
			}
			p := task.Time(3 + rnd.Intn(90))
			if len(specs) > 0 && rnd.Intn(4) == 0 {
				p = specs[rnd.Intn(len(specs))].Period // tie with a resident
			}
			w := task.Time(2 + rnd.Intn(int(p)-1))
			x := w / 2
			if x < 1 {
				x = 1
			}
			id++
			c := task.Task{Name: name(id), Period: p, WCETAccurate: w, WCETImprecise: x}
			checkProbe(t, inc, specs, c, "churn")
			if rnd.Intn(2) == 0 {
				inc.Add(&c)
				specs = append(specs, c)
			}
			if len(specs) > 0 && step%7 == 0 {
				s, err := task.New(specs)
				if err != nil {
					t.Fatalf("trial %d: task.New: %v", trial, err)
				}
				for _, m := range []task.Mode{task.Accurate, task.Deepest} {
					if got, want := inc.Utilization(m), feasibility.Check(s, m).Utilization; got != want {
						t.Fatalf("trial %d: Utilization(%d) = %v, want %v", trial, m, got, want)
					}
				}
			}
		}
	}
}

func name(id int) string {
	return "t" + string(rune('a'+id%26)) + string(rune('a'+(id/26)%26)) + string(rune('a'+(id/676)%26))
}

// An empty cache must reduce to the single-task condition-1 check.
func TestIncrementalProbeEmpty(t *testing.T) {
	inc := feasibility.NewIncremental(nil)
	ok := task.Task{Name: "x", Period: 10, WCETAccurate: 10, WCETImprecise: 5}
	if a, d := inc.Probe(&ok); !a || !d {
		t.Errorf("U=1 singleton rejected: (%v,%v)", a, d)
	}
	bad := task.Task{Name: "x", Period: 10, WCETAccurate: 11, WCETImprecise: 5}
	if a, d := inc.Probe(&bad); a || !d {
		t.Errorf("U=1.1 singleton: got (%v,%v), want (false,true)", a, d)
	}
}

func benchmarkSet(b *testing.B, n int) *task.Set {
	b.Helper()
	rnd := rand.New(rand.NewSource(5))
	// Periods from a divisor-friendly menu so the hyper-period stays small.
	menu := []task.Time{200, 300, 400, 600, 800, 1200, 2400, 4800}
	tasks := make([]task.Task, n)
	for i := range tasks {
		p := menu[rnd.Intn(len(menu))]
		w := task.Time(2 + rnd.Intn(int(p)/(2*n)+1))
		tasks[i] = task.Task{Name: name(i + 1), Period: p, WCETAccurate: w, WCETImprecise: w / 2}
	}
	s, err := task.New(tasks)
	if err != nil {
		b.Fatalf("task.New: %v", err)
	}
	return s
}

// BenchmarkProfiles measures the admission screen itself: the step-point
// Check in both profiles on a Table-I-scale set and on larger long-period
// sets where the old unit-stride scan was O(p_n) per row.
func BenchmarkProfiles(b *testing.B) {
	cases, err := workload.CachedCases()
	if err != nil {
		b.Fatalf("CachedCases: %v", err)
	}
	s0, err := cases[0].Set()
	if err != nil {
		b.Fatalf("case set: %v", err)
	}
	sets := map[string]*task.Set{
		"tableI/" + cases[0].Name: s0,
		"rand16":                  benchmarkSet(b, 16),
		"rand64":                  benchmarkSet(b, 64),
	}
	for label, s := range sets {
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc, deep := feasibility.Profiles(s)
				if acc.GammaMin == 0 || deep.GammaMin == 0 {
					b.Fatal("degenerate report")
				}
			}
		})
	}
}

// BenchmarkIncrementalProbe measures the bin-packing hot path: one probe
// against an established resident set, versus the full Profiles
// recomputation it replaces.
func BenchmarkIncrementalProbe(b *testing.B) {
	for _, n := range []int{16, 64} {
		s := benchmarkSet(b, n)
		tasks := make([]task.Task, s.Len())
		for i := range tasks {
			tasks[i] = *s.Task(i)
		}
		inc := feasibility.NewIncremental(tasks)
		cand := task.Task{Name: "cand", Period: 900, WCETAccurate: 3, WCETImprecise: 1}
		b.Run("probe/"+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, d := inc.Probe(&cand)
				if !a && !d {
					b.Fatal("probe rejected benchmark candidate")
				}
			}
		})
		b.Run("full/"+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				merged := append(append([]task.Task(nil), tasks...), cand)
				ms, err := task.New(merged)
				if err != nil {
					b.Fatal(err)
				}
				acc, _ := feasibility.Profiles(ms)
				if !acc.Schedulable {
					b.Fatal("full probe rejected benchmark candidate")
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 16 {
		return "16"
	}
	return "64"
}

// Profiles shares each row's step points between its two modes; both
// reports must still be exactly Check's (reflect.DeepEqual, violation
// lists included) and the unit-stride oracle's, on random sets with ties,
// infeasible draws and extra imprecision levels.
func TestProfilesMatchesTwoChecks(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	checked, infeasible := 0, 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + rnd.Intn(6)
		tasks := make([]task.Task, n)
		for i := range tasks {
			p := task.Time(3 + rnd.Intn(150))
			if i > 0 && rnd.Intn(4) == 0 {
				p = tasks[i-1].Period
			}
			w := task.Time(2 + rnd.Intn(int(p)))
			if w > p {
				w = p
			}
			x := 1 + task.Time(rnd.Intn(int(w-1)))
			tk := task.Task{Name: "r", Period: p, WCETAccurate: w, WCETImprecise: x}
			if x > 1 && rnd.Intn(3) == 0 {
				tk.ExtraLevels = []task.Level{{WCET: 1 + task.Time(rnd.Intn(int(x-1)))}}
			}
			tasks[i] = tk
		}
		s, err := task.New(tasks)
		if err != nil {
			continue
		}
		checked++
		acc, deep := feasibility.Profiles(s)
		if !deep.Schedulable {
			infeasible++
		}
		for _, c := range []struct {
			got  feasibility.Report
			mode task.Mode
		}{{acc, task.Accurate}, {deep, task.Deepest}} {
			if want := feasibility.Check(s, c.mode); !reflect.DeepEqual(c.got, want) {
				t.Fatalf("trial %d mode %d: Profiles diverges from Check for %v:\n got %+v\nwant %+v",
					trial, c.mode, tasks, c.got, want)
			}
			if want := feasibility.CheckExhaustive(s, c.mode); !reportsEqual(c.got, want) {
				t.Fatalf("trial %d mode %d: Profiles diverges from the exhaustive oracle for %v",
					trial, c.mode, tasks)
			}
		}
	}
	if checked < 500 || infeasible == 0 || infeasible == checked {
		t.Fatalf("weak draw: %d sets checked, %d infeasible", checked, infeasible)
	}
}
