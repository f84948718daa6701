package runtime

import (
	"fmt"
	"testing"

	"nprt/internal/task"
)

// BenchmarkRuntimeAdd measures Runtime.Add with n tasks resident, on the
// two paths an admission takes:
//
//   - reject: a candidate that fails the Theorem-1 screen (the common
//     case under the ingest benchmark) — task.New plus Profiles over n+1
//     tasks, state unchanged;
//   - admit+remove: a candidate that passes, then its Remove, so the
//     resident set is the same at every iteration — two screens plus the
//     re-plan.
//
// Resident tasks have periods 4000/6000/8000 and WCET 2/1, so even 1000 of
// them use a third of the processor.
func BenchmarkRuntimeAdd(b *testing.B) {
	for _, n := range []int{20, 200, 1000} {
		r, err := New(Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p := task.Time(4000 + 2000*(i%3))
			if _, err := r.Add(TaskSpec{Task: mkTask(fmt.Sprintf("r%d", i), p, 2, 1)}); err != nil {
				b.Fatal(err)
			}
		}
		if len(r.Tasks()) != n {
			b.Fatalf("only %d of %d resident tasks admitted", len(r.Tasks()), n)
		}
		heavy := TaskSpec{Task: mkTask("heavy", 4000, 3999, 3998)}
		light := TaskSpec{Task: mkTask("light", 8000, 2, 1)}
		b.Run(fmt.Sprintf("n=%d/reject", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := r.Add(heavy)
				if err != nil || d.Verdict != Rejected {
					b.Fatal(d.Verdict, err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/admit+remove", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d, err := r.Add(light); err != nil || d.Verdict == Rejected {
					b.Fatal(d.Verdict, err)
				}
				if _, err := r.Remove("light"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
