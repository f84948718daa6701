package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkSoakGolden compares a soak result's three renderings — the text
// summary, the CSV and the JSON artifact — byte for byte against
// testdata/<name>.{txt,csv,json}. The goldens pin the soaks' exact
// outcomes, so any change to a driver's tick schedule, routing or audit
// that moves a single count shows up here.
func checkSoakGolden(t *testing.T, name, text string, writeCSV func(io.Writer) error, artifact any) {
	t.Helper()
	var csvOut, jsonOut bytes.Buffer
	if err := writeCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsonOut, artifact); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		ext string
		got []byte
	}{{".txt", []byte(text)}, {".csv", csvOut.Bytes()}, {".json", jsonOut.Bytes()}} {
		path := filepath.Join("testdata", name+g.ext)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs from the golden:\n got:\n%s\nwant:\n%s", path, g.got, want)
		}
	}
}

// TestChaosSoak runs a scaled-down chaos soak: seeded kills, wedge-
// evacuations and storage faults over a churn tape, three drives per
// width, requiring digest reproducibility and zero lost tasks. The full-
// scale sweep (8/64 shards, 1200 events) runs from paperbench and CI.
func TestChaosSoak(t *testing.T) {
	res, err := ChaosSoak(Config{Seed: 11}, t.TempDir(), 320, []int{3}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Policy != "first-fit" {
		t.Fatalf("rows %d, policy %q", len(res.Rows), res.Policy)
	}
	row := res.Rows[0]
	if row.Kills+row.Evacs == 0 {
		t.Fatal("chaos schedule injected no kills or evacuations — the soak tested nothing")
	}
	if !row.RepeatMatch {
		t.Error("repeated serial drive diverged")
	}
	if !row.ParallelMatch {
		t.Error("parallel drive diverged from serial")
	}
	if row.Lost != 0 || row.Orphans != 0 {
		t.Errorf("lost %d, orphans %d — containment leaked tasks", row.Lost, row.Orphans)
	}
	if row.MissesClean != 0 {
		t.Errorf("%d clean-window deadline misses under chaos", row.MissesClean)
	}
	if len(row.Digests) != row.Shards {
		t.Errorf("%d digests for %d shards", len(row.Digests), row.Shards)
	}
	out := FormatChaosSoak(res)
	if !strings.Contains(out, "CHAOS SOAK") {
		t.Errorf("format output missing banner:\n%s", out)
	}
	var sb strings.Builder
	if err := WriteChaosSoakCSV(&sb, res); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 2 {
		t.Errorf("csv has %d lines, want header + 1 row", lines)
	}
	checkSoakGolden(t, "chaos_r0", out, func(w io.Writer) error { return WriteChaosSoakCSV(w, res) }, res)
}

// TestReplicatedChaosSoak is the zero-shed variant: every shard carries a
// synchronous follower, wedges land on primary and follower drives alike,
// and the run itself errors on any shed, lost, orphaned, evicted, or
// clean-missed task — so beyond the soak's own gates the test checks that
// the torment actually exercised the failover machinery and that the
// three drives agreed on every promotion.
func TestReplicatedChaosSoak(t *testing.T) {
	res, err := ChaosSoak(Config{Seed: 11}, t.TempDir(), 320, []int{3}, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Wedges == 0 || row.Kills == 0 {
		t.Fatalf("torment plan too quiet: %d wedges, %d kills", row.Wedges, row.Kills)
	}
	if row.Promotions == 0 {
		t.Fatal("primary wedges caused no promotions — failover never ran")
	}
	if row.Demotions == 0 || row.Reseeds == 0 {
		t.Fatalf("no demotion/re-seed traffic (%d/%d) — follower torment missed", row.Demotions, row.Reseeds)
	}
	// Zero-shed failure handling: nothing evacuated, nothing evicted.
	if row.Evacs != 0 || row.Evicted != 0 {
		t.Fatalf("replicated run drained tasks: evacs=%d evicted=%d", row.Evacs, row.Evicted)
	}
	if row.Lost != 0 || row.Orphans != 0 || row.MissesClean != 0 {
		t.Fatalf("lost=%d orphans=%d clean misses=%d", row.Lost, row.Orphans, row.MissesClean)
	}
	if !row.RepeatMatch || !row.ParallelMatch {
		t.Fatalf("drives diverged: repeat=%v parallel=%v", row.RepeatMatch, row.ParallelMatch)
	}
	checkSoakGolden(t, "chaos_r1", FormatChaosSoak(res), func(w io.Writer) error { return WriteChaosSoakCSV(w, res) }, res)
}
