package experiments

import (
	"io"
	"testing"
)

// TestGraySoakReplicated holds the headline gray-failure claim end to
// end: seeded brownouts on primary drives, latency signal armed,
// replicas available — every gate inside GraySoak (lost/orphans/clean
// misses zero, serial repeat and parallel drives bit-identical including
// shed/miss/promotion counts, every brownout era answered by promotion,
// armed misses never above blind misses) must hold, and the torment must
// actually have happened.
func TestGraySoakReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("gray soak is a multi-drive cluster test")
	}
	r, err := GraySoak(Config{Seed: 7}, t.TempDir(), 400, []int{4}, "first-fit", 1)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.Brownouts == 0 {
		t.Fatal("soak injected no brownouts; torment plan is dead")
	}
	if row.Promotions == 0 {
		t.Fatal("no promotions despite brownouts with replicas")
	}
	if row.SlowEvents == 0 {
		t.Fatal("latency signal never fired despite brownouts")
	}
	if row.MissesNoSignal == 0 {
		t.Fatal("blind drive missed no deadlines; brownouts never intersected traffic")
	}
	if row.Misses >= row.MissesNoSignal {
		t.Fatalf("latency signal saved nothing: %d armed vs %d blind misses",
			row.Misses, row.MissesNoSignal)
	}
	checkSoakGolden(t, "gray_r1", FormatGraySoak(r), func(w io.Writer) error { return WriteGraySoakCSV(w, r) }, r)
}

// TestGraySoakUnreplicated: without replicas there is no failover, but
// the signal must still fence and shed — and all determinism and audit
// gates must hold.
func TestGraySoakUnreplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("gray soak is a multi-drive cluster test")
	}
	r, err := GraySoak(Config{Seed: 11}, t.TempDir(), 400, []int{4}, "first-fit", 0)
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.Brownouts == 0 {
		t.Fatal("soak injected no brownouts; torment plan is dead")
	}
	if row.Promotions != 0 {
		t.Fatalf("unreplicated soak reported %d promotions", row.Promotions)
	}
	if row.SlowEvents == 0 {
		t.Fatal("latency signal never fired despite brownouts")
	}
	checkSoakGolden(t, "gray_r0", FormatGraySoak(r), func(w io.Writer) error { return WriteGraySoakCSV(w, r) }, r)
}
