package task

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func validTask(name string, period, w, x Time) Task {
	return Task{Name: name, Period: period, WCETAccurate: w, WCETImprecise: x}
}

func TestNewSortsByPeriodAndAssignsIDs(t *testing.T) {
	s, err := New([]Task{
		validTask("slow", 100, 30, 10),
		validTask("fast", 10, 3, 1),
		validTask("mid", 50, 20, 5),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	wantOrder := []string{"fast", "mid", "slow"}
	for i, w := range wantOrder {
		if got := s.Task(i).Name; got != w {
			t.Errorf("task[%d].Name = %q, want %q", i, got, w)
		}
		if s.Task(i).ID != i {
			t.Errorf("task[%d].ID = %d, want %d", i, s.Task(i).ID, i)
		}
	}
	if got, want := s.Hyperperiod(), Time(100); got != want {
		t.Errorf("Hyperperiod = %d, want %d", got, want)
	}
}

func TestNewStableForEqualPeriods(t *testing.T) {
	s, err := New([]Task{
		validTask("a", 20, 5, 2),
		validTask("b", 20, 6, 3),
		validTask("c", 20, 7, 4),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := s.Task(i).Name; got != want {
			t.Errorf("task[%d] = %q, want %q (stable sort)", i, got, want)
		}
	}
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err != ErrEmptySet {
		t.Errorf("New(nil) error = %v, want ErrEmptySet", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		task Task
		want string
	}{
		{"zero period", Task{Name: "t", Period: 0, WCETAccurate: 2, WCETImprecise: 1}, "period"},
		{"negative release", Task{Name: "t", Period: 10, Release: -1, WCETAccurate: 2, WCETImprecise: 1}, "release"},
		{"zero accurate wcet", Task{Name: "t", Period: 10, WCETAccurate: 0, WCETImprecise: 1}, "accurate WCET"},
		{"zero imprecise wcet", Task{Name: "t", Period: 10, WCETAccurate: 2, WCETImprecise: 0}, "imprecise WCET"},
		{"imprecise not below accurate", Task{Name: "t", Period: 10, WCETAccurate: 2, WCETImprecise: 2}, "below accurate"},
		{"wcet exceeds period", Task{Name: "t", Period: 10, WCETAccurate: 11, WCETImprecise: 2}, "exceeds period"},
		{"negative B", Task{Name: "t", Period: 10, WCETAccurate: 5, WCETImprecise: 2, MaxConsecutiveImprecise: -1}, "MaxConsecutiveImprecise"},
		{"negative mean error", Task{Name: "t", Period: 10, WCETAccurate: 5, WCETImprecise: 2, Error: Dist{Mean: -1}}, "mean error"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.task.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid task %+v", c.task)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("Validate error %q does not mention %q", err, c.want)
			}
			if _, err := New([]Task{c.task}); err == nil {
				t.Errorf("New accepted invalid task %+v", c.task)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if Accurate.String() != "accurate" || Imprecise.String() != "imprecise" {
		t.Errorf("Mode.String: got %q/%q", Accurate, Imprecise)
	}
	if got := Mode(7).String(); got != "level7" {
		t.Errorf("Mode(7).String() = %q", got)
	}
	if Deepest.String() != "deepest" {
		t.Errorf("Deepest.String() = %q", Deepest.String())
	}
}

func TestWCETAndExecDistSelection(t *testing.T) {
	tk := Task{
		Period: 10, WCETAccurate: 8, WCETImprecise: 3,
		ExecAccurate:  Dist{Mean: 5},
		ExecImprecise: Dist{Mean: 2},
	}
	if tk.WCET(Accurate) != 8 || tk.WCET(Imprecise) != 3 {
		t.Errorf("WCET selection wrong: %d/%d", tk.WCET(Accurate), tk.WCET(Imprecise))
	}
	if tk.ExecDist(Accurate).Mean != 5 || tk.ExecDist(Imprecise).Mean != 2 {
		t.Errorf("ExecDist selection wrong")
	}
}

func TestJobMaterialization(t *testing.T) {
	s := MustNew([]Task{
		{Name: "a", Period: 10, Release: 3, WCETAccurate: 4, WCETImprecise: 1},
	})
	j := s.Job(0, 0)
	if j.Release != 3 || j.Deadline != 13 {
		t.Errorf("job 0: release/deadline = %d/%d, want 3/13", j.Release, j.Deadline)
	}
	j = s.Job(0, 5)
	if j.Release != 53 || j.Deadline != 63 {
		t.Errorf("job 5: release/deadline = %d/%d, want 53/63", j.Release, j.Deadline)
	}
	if j.Key() != (JobKey{TaskID: 0, Index: 5}) {
		t.Errorf("Key = %+v", j.Key())
	}
}

func TestJobsWithinOneHyperperiod(t *testing.T) {
	s := MustNew([]Task{
		validTask("a", 10, 3, 1),
		validTask("b", 20, 5, 2),
	})
	jobs := s.JobsWithin(0, s.Hyperperiod())
	if want := s.JobsPerHyperperiod(); len(jobs) != want {
		t.Fatalf("JobsWithin returned %d jobs, want %d", len(jobs), want)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Release < jobs[i-1].Release {
			t.Errorf("jobs not sorted by release at %d", i)
		}
	}
	for _, j := range jobs {
		if j.Release < 0 || j.Deadline > s.Hyperperiod() {
			t.Errorf("job %v outside [0,P]", j)
		}
		if j.Deadline-j.Release != s.Task(j.TaskID).Period {
			t.Errorf("job %v window is not one period", j)
		}
	}
}

func TestJobsWithinOffsetWindow(t *testing.T) {
	s := MustNew([]Task{validTask("a", 10, 3, 1)})
	jobs := s.JobsWithin(25, 60)
	// Releases at 30, 40, 50 have deadlines 40, 50, 60 inside [25,60].
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs, want 3: %v", len(jobs), jobs)
	}
	if jobs[0].Release != 30 || jobs[2].Deadline != 60 {
		t.Errorf("window edges wrong: %v", jobs)
	}
}

func TestJobsWithinRespectsPhase(t *testing.T) {
	s := MustNew([]Task{
		{Name: "a", Period: 10, Release: 4, WCETAccurate: 3, WCETImprecise: 1},
	})
	jobs := s.JobsWithin(0, 30)
	// Releases 4 (d=14) and 14 (d=24) fit; 24 (d=34) does not.
	if len(jobs) != 2 || jobs[0].Release != 4 || jobs[1].Release != 14 {
		t.Errorf("phase handling wrong: %v", jobs)
	}
}

func TestUtilizationAndJobsPerHyperperiod(t *testing.T) {
	s := MustNew([]Task{
		validTask("a", 10, 4, 1),  // U_acc 0.4, U_imp 0.1
		validTask("b", 20, 10, 4), // U_acc 0.5, U_imp 0.2
	})
	if got := s.UtilizationAccurate(); got < 0.899 || got > 0.901 {
		t.Errorf("UtilizationAccurate = %g, want 0.9", got)
	}
	if got := s.UtilizationImprecise(); got < 0.299 || got > 0.301 {
		t.Errorf("UtilizationImprecise = %g, want 0.3", got)
	}
	if got := s.JobsPerHyperperiod(); got != 3 {
		t.Errorf("JobsPerHyperperiod = %d, want 3", got)
	}
}

func TestSuperPeriod(t *testing.T) {
	mk := func(b1, b2 int) *Set {
		return MustNew([]Task{
			{Name: "a", Period: 10, WCETAccurate: 3, WCETImprecise: 1, MaxConsecutiveImprecise: b1},
			{Name: "b", Period: 20, WCETAccurate: 5, WCETImprecise: 2, MaxConsecutiveImprecise: b2},
		})
	}
	s := mk(1, 2) // lcm(2,3) = 6
	sp, f, capped := s.SuperPeriod(0)
	if f != 6 || sp != 6*s.Hyperperiod() || capped {
		t.Errorf("SuperPeriod = (%d,%d,%v), want factor 6 uncapped", sp, f, capped)
	}
	sp, f, capped = s.SuperPeriod(4)
	if f != 4 || !capped || sp != 4*s.Hyperperiod() {
		t.Errorf("capped SuperPeriod = (%d,%d,%v), want factor 4 capped", sp, f, capped)
	}
	s = mk(0, 0) // no constraints
	_, f, capped = s.SuperPeriod(0)
	if f != 1 || capped {
		t.Errorf("unconstrained SuperPeriod factor = %d, want 1", f)
	}
}

func TestScalePreservesInvariants(t *testing.T) {
	s := MustNew([]Task{
		{Name: "a", Period: 100, WCETAccurate: 40, WCETImprecise: 10,
			ExecAccurate: Dist{Mean: 30, Sigma: 2, Min: 4, Max: 40}},
		{Name: "b", Period: 200, WCETAccurate: 90, WCETImprecise: 30},
	})
	for _, k := range []float64{0.25, 0.5, 1.0, 1.5} {
		scaled, err := s.Scale(k)
		if err != nil {
			t.Fatalf("Scale(%g): %v", k, err)
		}
		for i := 0; i < scaled.Len(); i++ {
			tk := scaled.Task(i)
			if tk.WCETImprecise >= tk.WCETAccurate || tk.WCETImprecise < 1 {
				t.Errorf("Scale(%g) task %d broke WCET ordering: w=%d x=%d",
					k, i, tk.WCETAccurate, tk.WCETImprecise)
			}
			if tk.Period != s.Task(i).Period {
				t.Errorf("Scale(%g) changed period", k)
			}
		}
	}
	scaled, _ := s.Scale(0.5)
	if got := scaled.Task(1).WCETAccurate; got != 45 {
		t.Errorf("Scale(0.5) accurate WCET = %d, want 45", got)
	}
	if got := scaled.Task(0).ExecAccurate.Mean; got != 15 {
		t.Errorf("Scale(0.5) exec mean = %g, want 15", got)
	}
}

func TestScaleExtremeShrinkClamps(t *testing.T) {
	s := MustNew([]Task{validTask("a", 100, 4, 2)})
	scaled, err := s.Scale(0.01)
	if err != nil {
		t.Fatalf("Scale: %v", err)
	}
	tk := scaled.Task(0)
	if tk.WCETImprecise < 1 || tk.WCETImprecise >= tk.WCETAccurate {
		t.Errorf("clamping failed: w=%d x=%d", tk.WCETAccurate, tk.WCETImprecise)
	}
}

func TestGCDLCM(t *testing.T) {
	cases := []struct{ a, b, gcd, lcm Time }{
		{4, 6, 2, 12},
		{7, 13, 1, 91},
		{10, 10, 10, 10},
		{1, 9, 1, 9},
	}
	for _, c := range cases {
		if g := GCD(c.a, c.b); g != c.gcd {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, g, c.gcd)
		}
		if l := LCM(c.a, c.b); l != c.lcm {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, l, c.lcm)
		}
	}
	if LCM(0, 5) != 0 || LCM(5, 0) != 0 {
		t.Error("LCM with non-positive input should report 0")
	}
}

func TestHyperperiodOverflowDetected(t *testing.T) {
	// Periods chosen as large coprime numbers so the LCM overflows int64.
	_, err := New([]Task{
		validTask("a", 1<<40, 10, 5),
		validTask("b", (1<<40)+1, 10, 5),
		validTask("c", (1<<40)+3, 10, 5),
	})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("overflow not detected: %v", err)
	}
}

func TestStringOutputs(t *testing.T) {
	s := MustNew([]Task{validTask("a", 10, 3, 1)})
	if out := s.String(); !strings.Contains(out, "taskset{n=1") || !strings.Contains(out, "a") {
		t.Errorf("Set.String output unexpected: %q", out)
	}
	j := s.Job(0, 1)
	if got := j.String(); got != "τ(0,1)[10,20)" {
		t.Errorf("Job.String = %q", got)
	}
}

// Property: GCD divides both arguments and LCM is a common multiple, for
// arbitrary positive inputs.
func TestGCDLCMProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := Time(a)+1, Time(b)+1
		g := GCD(x, y)
		l := LCM(x, y)
		return x%g == 0 && y%g == 0 && l%x == 0 && l%y == 0 && g*l == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: JobsWithin(0,P) release times tile the hyper-period exactly.
func TestJobsWithinCoverageProperty(t *testing.T) {
	f := func(p1, p2 uint8) bool {
		a := Time(p1%50) + 2
		b := Time(p2%50) + 2
		s := MustNew([]Task{
			validTask("a", a, 2, 1),
			validTask("b", b, 2, 1),
		})
		jobs := s.JobsWithin(0, s.Hyperperiod())
		counts := map[int]int{}
		for _, j := range jobs {
			counts[j.TaskID]++
		}
		for i := 0; i < s.Len(); i++ {
			if Time(counts[i]) != s.Hyperperiod()/s.Task(i).Period {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScaleMultiLevel(t *testing.T) {
	s := MustNew([]Task{{
		Name: "a", Period: 100, WCETAccurate: 40, WCETImprecise: 20,
		ExtraLevels: []Level{
			{WCET: 10, Error: Dist{Mean: 5}, Exec: Dist{Mean: 6, Sigma: 1, Min: 1, Max: 10}},
			{WCET: 4, Error: Dist{Mean: 9}},
		},
	}})
	scaled, err := s.Scale(0.5)
	if err != nil {
		t.Fatal(err)
	}
	tk := scaled.Task(0)
	if tk.ExtraLevels[0].WCET != 5 || tk.ExtraLevels[1].WCET != 2 {
		t.Errorf("level WCETs = %d/%d, want 5/2", tk.ExtraLevels[0].WCET, tk.ExtraLevels[1].WCET)
	}
	if tk.ExtraLevels[0].Exec.Mean != 3 {
		t.Errorf("level exec dist not scaled: %+v", tk.ExtraLevels[0].Exec)
	}
	if tk.ExtraLevels[0].Error.Mean != 5 {
		t.Errorf("level error stats must not scale: %+v", tk.ExtraLevels[0].Error)
	}
	if err := tk.Validate(); err != nil {
		t.Errorf("scaled multi-level task invalid: %v", err)
	}
	// Extreme shrink must either stay strictly decreasing or error out.
	if tiny, err := s.Scale(0.01); err == nil {
		if err := tiny.Task(0).Validate(); err != nil {
			t.Errorf("extreme scale produced invalid task: %v", err)
		}
	}
}

func TestJSONRoundTripWithLevels(t *testing.T) {
	s := MustNew([]Task{{
		Name: "a", Period: 100, WCETAccurate: 40, WCETImprecise: 20,
		Error:       Dist{Mean: 2, Sigma: 1},
		ExtraLevels: []Level{{WCET: 10, Error: Dist{Mean: 5}}},
	}})
	var b strings.Builder
	if err := s.EncodeJSON(&b); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, b.String())
	}
	tk := back.Task(0)
	if tk.NumModes() != 3 || tk.WCET(Deepest) != 10 || tk.ErrorDist(Mode(2)).Mean != 5 {
		t.Errorf("levels lost in round trip: %+v", tk)
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	if _, err := DecodeJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := DecodeJSON(strings.NewReader(`[{"Period":0,"Name":"x"}]`)); err == nil {
		t.Error("invalid task accepted")
	}
	if _, err := DecodeJSON(strings.NewReader(`[{"Bogus":1}]`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// The sentinel-error contract: New rejects each invalid boundary combination
// with an error matching the right sentinel, and accepts the legal
// boundaries — including a task whose utilization is exactly 1.0.
func TestNewBoundaryValidation(t *testing.T) {
	bad := []struct {
		name string
		task Task
		want error
	}{
		{"zero period", Task{Period: 0, WCETAccurate: 2, WCETImprecise: 1}, ErrNonPositivePeriod},
		{"negative period", Task{Period: -10, WCETAccurate: 2, WCETImprecise: 1}, ErrNonPositivePeriod},
		{"negative release", Task{Period: 10, Release: -1, WCETAccurate: 2, WCETImprecise: 1}, ErrNegativeRelease},
		{"zero accurate wcet", Task{Period: 10, WCETAccurate: 0, WCETImprecise: 1}, ErrNonPositiveWCET},
		{"negative accurate wcet", Task{Period: 10, WCETAccurate: -2, WCETImprecise: 1}, ErrNonPositiveWCET},
		{"zero imprecise wcet", Task{Period: 10, WCETAccurate: 2, WCETImprecise: 0}, ErrNonPositiveWCET},
		{"negative imprecise wcet", Task{Period: 10, WCETAccurate: 2, WCETImprecise: -1}, ErrNonPositiveWCET},
		{"x equals w", Task{Period: 10, WCETAccurate: 5, WCETImprecise: 5}, ErrModeOrder},
		{"x above w", Task{Period: 10, WCETAccurate: 5, WCETImprecise: 6}, ErrModeOrder},
		{"w above period", Task{Period: 10, WCETAccurate: 11, WCETImprecise: 2}, ErrWCETExceedsPeriod},
		{"negative B", Task{Period: 10, WCETAccurate: 5, WCETImprecise: 2, MaxConsecutiveImprecise: -1}, ErrBadStatistic},
		{"negative mean error", Task{Period: 10, WCETAccurate: 5, WCETImprecise: 2, Error: Dist{Mean: -1}}, ErrBadStatistic},
		{"control character name", Task{Name: "a\nb", Period: 10, WCETAccurate: 5, WCETImprecise: 2}, ErrBadName},
		{"level not below x", Task{Period: 10, WCETAccurate: 5, WCETImprecise: 2,
			ExtraLevels: []Level{{WCET: 2}}}, ErrBadLevel},
		{"level zero wcet", Task{Period: 10, WCETAccurate: 5, WCETImprecise: 2,
			ExtraLevels: []Level{{WCET: 0}}}, ErrBadLevel},
		{"level negative error", Task{Period: 10, WCETAccurate: 5, WCETImprecise: 3,
			ExtraLevels: []Level{{WCET: 2, Error: Dist{Mean: -1}}}}, ErrBadLevel},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := New([]Task{c.task})
			if err == nil {
				t.Fatalf("New accepted invalid task %+v", c.task)
			}
			if !errors.Is(err, c.want) {
				t.Errorf("New error %q does not wrap sentinel %q", err, c.want)
			}
		})
	}

	good := []struct {
		name string
		task Task
	}{
		{"utilization exactly 1.0", Task{Period: 10, WCETAccurate: 10, WCETImprecise: 3}},
		{"minimal mode gap", Task{Period: 10, WCETAccurate: 2, WCETImprecise: 1}},
		{"zero release", Task{Period: 10, Release: 0, WCETAccurate: 2, WCETImprecise: 1}},
		{"B zero (no constraint)", Task{Period: 10, WCETAccurate: 2, WCETImprecise: 1, MaxConsecutiveImprecise: 0}},
	}
	for _, c := range good {
		t.Run(c.name, func(t *testing.T) {
			s, err := New([]Task{c.task})
			if err != nil {
				t.Fatalf("New rejected legal boundary task: %v", err)
			}
			if c.name == "utilization exactly 1.0" && s.UtilizationAccurate() != 1.0 {
				t.Errorf("utilization = %g, want exactly 1.0", s.UtilizationAccurate())
			}
		})
	}
}

// New sorts through an index permutation; the result must be exactly a
// stable sort of the Task structs by period (ties keep input order).
func TestNewMatchesStableStructSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		in := make([]Task, 1+rnd.Intn(40))
		for i := range in {
			p := Time(10 * (1 + rnd.Intn(6))) // few distinct periods: many ties
			in[i] = validTask(fmt.Sprintf("t%d", i), p, 4, 1+Time(rnd.Intn(3)))
		}
		want := append([]Task(nil), in...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].Period < want[b].Period })
		for i := range want {
			want[i].ID = i
		}
		s, err := New(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Tasks(), want) {
			t.Fatalf("trial %d: New order diverges from a stable struct sort", trial)
		}
	}
}
