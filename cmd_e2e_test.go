package nprt_test

// End-to-end tests for the command-line tools: build each binary once into
// a temp dir, then drive it the way a user would. These tests need the `go`
// toolchain on PATH (always true under `go test`).

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nprt-bins")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", binDir, "./cmd/...")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building cmds: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func runTool(t *testing.T, name string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestE2ESchedcheck(t *testing.T) {
	out, err := runTool(t, "schedcheck", "-case", "Rnd5")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"accurate mode: schedulable=false",
		"imprecise mode: schedulable=true", "individual slacks", "preemptive EDF reference"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	out, err = runTool(t, "schedcheck", "-list")
	if err != nil || !strings.Contains(out, "Rnd13") {
		t.Errorf("-list: %v\n%s", err, out)
	}
	if _, err = runTool(t, "schedcheck", "-case", "nope"); err == nil {
		t.Error("unknown case accepted")
	}
}

// exitCode runs a tool and reports the process exit code (0 on success).
func exitCode(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	out, err := runTool(t, name, args...)
	if err == nil {
		return 0, out
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return ee.ExitCode(), out
}

// TestE2ESchedcheckExitCodes pins the scripting contract: 0 for an
// imprecise-schedulable set, 2 for invalid input, 3 for a valid but
// unschedulable set.
func TestE2ESchedcheckExitCodes(t *testing.T) {
	if code, out := exitCode(t, "schedcheck", "-case", "Rnd5"); code != 0 {
		t.Errorf("Rnd5 exit %d, want 0\n%s", code, out)
	}
	// Rnd2 is not schedulable even in imprecise mode (Table I): the report
	// still prints, but the exit code says unschedulable.
	code, out := exitCode(t, "schedcheck", "-case", "Rnd2")
	if code != 3 {
		t.Errorf("Rnd2 exit %d, want 3\n%s", code, out)
	}
	if !strings.Contains(out, "imprecise mode: schedulable=false") {
		t.Errorf("Rnd2 report missing verdict:\n%s", out)
	}
	if code, out := exitCode(t, "schedcheck", "-case", "nope"); code != 2 {
		t.Errorf("unknown case exit %d, want 2\n%s", code, out)
	}
	if code, out := exitCode(t, "schedcheck", "-file", "/no/such/file.json"); code != 2 {
		t.Errorf("missing file exit %d, want 2\n%s", code, out)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"not":"a task array"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitCode(t, "schedcheck", "-file", bad); code != 2 {
		t.Errorf("malformed JSON exit %d, want 2\n%s", code, out)
	}
	if code, out := exitCode(t, "schedcheck"); code != 2 {
		t.Errorf("no-args exit %d, want 2\n%s", code, out)
	}
}

func TestE2EImpsched(t *testing.T) {
	out, err := runTool(t, "impsched", "-case", "Rnd1", "-method", "EDF+ESR", "-hp", "20")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"method:", "deadline misses:", "mean error:", "mode counts:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Gantt path.
	out, err = runTool(t, "impsched", "-case", "Rnd1", "-method", "Flipped EDF", "-hp", "5", "-gantt")
	if err != nil || !strings.Contains(out, "|") {
		t.Errorf("gantt: %v\n%s", err, out)
	}
	// Method listing and error path.
	out, err = runTool(t, "impsched", "-methods")
	if err != nil || !strings.Contains(out, "DP(C)") {
		t.Errorf("-methods: %v\n%s", err, out)
	}
	if _, err = runTool(t, "impsched", "-case", "Rnd1", "-method", "bogus"); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestE2EImpschedTraceCSV(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "trace.csv")
	out, err := runTool(t, "impsched", "-case", "Rnd1", "-method", "EDF-Imprecise",
		"-hp", "3", "-tracecsv", csvPath)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "task,index,mode") {
		t.Errorf("trace CSV header wrong: %.80s", data)
	}
	if lines := strings.Count(string(data), "\n"); lines != 1+3*13 {
		t.Errorf("trace CSV has %d lines, want %d", lines, 1+3*13)
	}
}

func TestE2EPaperbench(t *testing.T) {
	out, err := runTool(t, "paperbench", "table1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "IDCT") {
		t.Errorf("table1 output:\n%s", out)
	}
	csvDir := t.TempDir()
	out, err = runTool(t, "paperbench", "table4", "-csv", csvDir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "table4.json")); err != nil {
		t.Errorf("CSV artifact missing: %v", err)
	}
	if _, err = runTool(t, "paperbench", "bogus"); err == nil {
		t.Error("unknown artifact accepted")
	}
}

// TestE2EPaperbenchILPProfile drives the offline ILP bench end to end with
// a parallel branch-and-bound and both profilers attached: the -cpuprofile /
// -memprofile plumbing must wrap the ILP solves (not only the simulation
// artifacts), so both profile files must come back non-empty alongside the
// JSON artifact.
func TestE2EPaperbenchILPProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	out, err := runTool(t, "paperbench", "ilp",
		"-ilpworkers", "2", "-cpuprofile", cpu, "-memprofile", mem, "-csv", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"OFFLINE MODE-ILP SOLVER BENCH", "Rnd13", "feasible"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, f := range []string{cpu, mem} {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", f)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "ilp.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"best_bound\"") {
		t.Errorf("ilp.json lacks solver fields: %.120s", data)
	}
}

func TestE2ETaskgenRoundTrip(t *testing.T) {
	out, err := runTool(t, "taskgen", "-tasks", "3", "-jobs", "12", "-util", "1.4", "-seed", "5")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	file := filepath.Join(t.TempDir(), "tasks.json")
	if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	check, err := runTool(t, "schedcheck", "-file", file)
	if err != nil {
		t.Fatalf("schedcheck on generated set: %v\n%s", err, check)
	}
	if !strings.Contains(check, "taskset{n=3") {
		t.Errorf("generated set not loaded:\n%s", check)
	}
	// Dumping a built-in case also works.
	out, err = runTool(t, "taskgen", "-case", "Rnd1")
	if err != nil || !strings.Contains(out, "Rnd1-t0") {
		t.Errorf("-case dump: %v\n%.120s", err, out)
	}
}

// TestE2EExamples builds and runs every example end-to-end so the
// documentation programs can never rot.
func TestE2EExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow-ish; skipped with -short")
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil || len(examples) == 0 {
		t.Fatalf("globbing examples: %v (%d found)", err, len(examples))
	}
	for _, dir := range examples {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			bin := filepath.Join(t.TempDir(), filepath.Base(dir))
			build := exec.Command("go", "build", "-o", bin, "./"+dir)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			out, err := exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if len(out) == 0 {
				t.Error("example produced no output")
			}
			lower := strings.ToLower(string(out))
			if strings.Contains(lower, "panic") || strings.Contains(lower, "violation:") {
				t.Errorf("example output looks broken:\n%s", out)
			}
		})
	}
}

func TestE2EPlanSaveLoad(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	out, err := runTool(t, "impsched", "-case", "Rnd1", "-method", "ILP+Post+OA",
		"-hp", "5", "-saveplan", plan)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "plan written") {
		t.Errorf("no save confirmation:\n%s", out)
	}
	out, err = runTool(t, "impsched", "-case", "Rnd1", "-hp", "5", "-loadplan", plan)
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out)
	}
	if !strings.Contains(out, "loaded-plan+OA") {
		t.Errorf("loaded plan not used:\n%s", out)
	}
	// Loading against the wrong case must fail.
	if _, err := runTool(t, "impsched", "-case", "Rnd3", "-hp", "2", "-loadplan", plan); err == nil {
		t.Error("plan accepted against the wrong set")
	}
	// -saveplan on an online method must fail.
	if _, err := runTool(t, "impsched", "-case", "Rnd1", "-method", "EDF+ESR",
		"-saveplan", filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Error("-saveplan accepted for an online method")
	}
}

// TestE2EImpserve drives the long-running runtime daemon: generate a churn
// tape, serve it to the horizon, then prove the checkpoint contract — a
// run cut at an early horizon and resumed from its snapshot must end with
// the same digest as the uninterrupted run.
func TestE2EImpserve(t *testing.T) {
	dir := t.TempDir()
	tape := filepath.Join(dir, "tape.json")
	out, err := runTool(t, "impserve", "-gen", "200", "-seed", "3", "-tape", tape)
	if err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}

	full, err := runTool(t, "impserve", "-tape", tape, "-quiet")
	if err != nil {
		t.Fatalf("full run: %v\n%s", err, full)
	}
	wantDigest := digestLine(t, full)

	cut := filepath.Join(dir, "cut.json")
	out, err = runTool(t, "impserve", "-tape", tape, "-epochs", "60", "-checkpoint", cut, "-quiet")
	if err != nil {
		t.Fatalf("cut run: %v\n%s", err, out)
	}
	resumed, err := runTool(t, "impserve", "-tape", tape, "-restore", cut, "-quiet")
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, resumed)
	}
	if got := digestLine(t, resumed); got != wantDigest {
		t.Errorf("resumed digest %s, uninterrupted %s", got, wantDigest)
	}
	if !strings.Contains(resumed, "restored:") {
		t.Errorf("no restore confirmation:\n%s", resumed)
	}

	// Input-validation exit code: a missing tape is 2.
	if code, _ := exitCode(t, "impserve", "-tape", filepath.Join(dir, "nope.json")); code != 2 {
		t.Errorf("missing tape exit %d, want 2", code)
	}
	if code, _ := exitCode(t, "impserve"); code != 2 {
		t.Errorf("no-args exit %d, want 2", code)
	}
}

// digestLine extracts the "digest: <hex>" summary line.
func digestLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "digest:") {
			return strings.TrimSpace(strings.TrimPrefix(line, "digest:"))
		}
	}
	t.Fatalf("no digest line in:\n%s", out)
	return ""
}

// TestE2EImpserveSignal: SIGINT against a running daemon must finish the
// epoch in flight, write the checkpoint, and exit with code 4 — and the
// checkpoint must be restorable.
func TestE2EImpserveSignal(t *testing.T) {
	dir := t.TempDir()
	tape := filepath.Join(dir, "tape.json")
	if out, err := runTool(t, "impserve", "-gen", "200", "-seed", "3", "-tape", tape); err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}
	ckpt := filepath.Join(dir, "sig.json")

	// An unreachable horizon keeps the daemon running until the signal.
	cmd := exec.Command(filepath.Join(binDir, "impserve"),
		"-tape", tape, "-epochs", "1000000000", "-hp", "50", "-checkpoint", ckpt, "-quiet")
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 4 {
		t.Fatalf("exit %v, want code 4\n%s", err, buf.String())
	}

	// How far did it get before the signal? Resume a few epochs past that.
	var at int64
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "epochs:") {
			if _, err := fmt.Sscanf(line, "epochs: %d", &at); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	if at == 0 {
		t.Fatalf("no epochs line in:\n%s", buf.String())
	}
	out, err := runTool(t, "impserve", "-tape", tape, "-restore", ckpt, "-quiet", "-hp", "50",
		"-epochs", strconv.FormatInt(at+5, 10))
	if err != nil {
		t.Fatalf("restore after signal: %v\n%s", err, out)
	}
	if !strings.Contains(out, "restored:") {
		t.Errorf("checkpoint from signal not restored:\n%s", out)
	}
}

// TestE2EPaperbenchChurn exercises the churn soak artifact end to end.
func TestE2EPaperbenchChurn(t *testing.T) {
	dir := t.TempDir()
	out, err := runTool(t, "paperbench", "churn", "-events", "300", "-csv", dir)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "CHURN SOAK") {
		t.Errorf("churn output:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"engines_match\": true") &&
		!strings.Contains(string(data), "\"engines_match\":true") {
		t.Errorf("churn.json lacks engine agreement: %.200s", data)
	}
	if _, err := os.Stat(filepath.Join(dir, "churn.csv")); err != nil {
		t.Errorf("churn.csv missing: %v", err)
	}
}

// TestE2EImpserveDurable proves the -dir mode contract: journaling is
// invisible to the run identity (durable digest == in-memory digest), and
// a process killed at an fsync boundary recovers bit-identically.
func TestE2EImpserveDurable(t *testing.T) {
	dir := t.TempDir()
	tape := filepath.Join(dir, "tape.json")
	if out, err := runTool(t, "impserve", "-gen", "24", "-seed", "7", "-tape", tape); err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}

	mem, err := runTool(t, "impserve", "-tape", tape, "-quiet")
	if err != nil {
		t.Fatalf("in-memory run: %v\n%s", err, mem)
	}
	wantDigest := digestLine(t, mem)

	dur, err := runTool(t, "impserve", "-tape", tape, "-quiet", "-dir", filepath.Join(dir, "clean"))
	if err != nil {
		t.Fatalf("durable run: %v\n%s", err, dur)
	}
	if got := digestLine(t, dur); got != wantDigest {
		t.Errorf("durable digest %s, in-memory %s", got, wantDigest)
	}
	var fsyncs int
	if _, err := fmt.Sscanf(fieldLine(t, dur, "fsyncs:"), "%d", &fsyncs); err != nil || fsyncs == 0 {
		t.Fatalf("no fsyncs count in:\n%s", dur)
	}

	// Kill mid-run at an fsync boundary; the recovery run must resume from
	// durable state and finish with the uncrashed digest.
	crashDir := filepath.Join(dir, "crash")
	code, out := exitCode(t, "impserve", "-tape", tape, "-quiet", "-dir", crashDir,
		"-crash-after-fsync", strconv.Itoa(fsyncs/2))
	if code != 7 {
		t.Fatalf("crash run exit %d, want 7\n%s", code, out)
	}
	rec, err := runTool(t, "impserve", "-tape", tape, "-quiet", "-dir", crashDir)
	if err != nil {
		t.Fatalf("recovery run: %v\n%s", err, rec)
	}
	if !strings.Contains(rec, "restored:") {
		t.Errorf("no restore confirmation:\n%s", rec)
	}
	if got := digestLine(t, rec); got != wantDigest {
		t.Errorf("recovered digest %s, uncrashed %s", got, wantDigest)
	}
}

// fieldLine extracts the value of a "label:  value" summary line.
func fieldLine(t *testing.T, out, label string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, label) {
			return strings.TrimSpace(strings.TrimPrefix(line, label))
		}
	}
	t.Fatalf("no %q line in:\n%s", label, out)
	return ""
}

// TestE2EImpserveSweep runs the self-exec crash-point sweep on a small
// tape and checks the JSON artifact: every kill point recovered.
func TestE2EImpserveSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep re-executes the binary dozens of times; skipped with -short")
	}
	dir := t.TempDir()
	artifact := filepath.Join(dir, "sweep.json")
	out, err := runTool(t, "impserve", "-sweep", "-gen", "8", "-seed", "5",
		"-sweep-engine", "indexed", "-sweep-out", artifact)
	if err != nil {
		t.Fatalf("sweep: %v\n%s", err, out)
	}
	if !strings.Contains(out, "crash points recovered") {
		t.Errorf("sweep summary missing:\n%s", out)
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Engines []struct {
			Engine string `json:"engine"`
			Fsyncs int    `json:"fsyncs"`
			AllOK  bool   `json:"all_ok"`
		} `json:"engines"`
		AllOK bool `json:"all_ok"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("artifact: %v\n%.200s", err, data)
	}
	if !report.AllOK || len(report.Engines) != 1 || !report.Engines[0].AllOK {
		t.Errorf("sweep artifact not all-ok: %+v", report)
	}
	if report.Engines[0].Fsyncs < 10 {
		t.Errorf("suspiciously few crash points: %d", report.Engines[0].Fsyncs)
	}
}

// TestE2EImpserveStrict pins -strict tape validation: churn tapes carry
// deliberate stale events and must be rejected with line numbers, while a
// clean tape passes.
func TestE2EImpserveStrict(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{
  "events": [
    {"epoch": 0, "op": "remove", "name": "ghost"}
  ]
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := exitCode(t, "impserve", "-tape", bad, "-strict", "-epochs", "2", "-quiet")
	if code != 2 {
		t.Fatalf("strict ghost-remove exit %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "line 3") || !strings.Contains(out, "unknown task") {
		t.Errorf("strict rejection lacks line/cause:\n%s", out)
	}
	// The same tape is tolerated (stale request) without -strict.
	if code, out := exitCode(t, "impserve", "-tape", bad, "-epochs", "2", "-quiet"); code != 0 {
		t.Errorf("lenient ghost-remove exit %d, want 0\n%s", code, out)
	}
	// A generated churn tape deliberately contains stale events: strict
	// mode must refuse it too.
	tape := filepath.Join(dir, "churn.json")
	if out, err := runTool(t, "impserve", "-gen", "64", "-seed", "3", "-tape", tape); err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}
	if code, out := exitCode(t, "impserve", "-tape", tape, "-strict", "-epochs", "2", "-quiet"); code != 2 {
		t.Errorf("strict churn tape exit %d, want 2\n%s", code, out)
	}
}

// TestE2EImpserveServe drives the supervised HTTP service at both widths
// (one node, and a 2-shard cluster): readiness flips after recovery,
// admissions land over HTTP, SIGTERM drains gracefully (exit 0), and a
// restart restores the admitted state.
func TestE2EImpserveServe(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testImpserveServe(t, shards)
		})
	}
}

func testImpserveServe(t *testing.T, shards int) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")

	start := func() (*exec.Cmd, string, *lockedBuf) {
		cmd := exec.Command(filepath.Join(binDir, "impserve"),
			"-dir", stateDir, "-listen", "127.0.0.1:0", "-epoch-interval", "10ms",
			"-shards", strconv.Itoa(shards))
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		buf := &lockedBuf{}
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// First line announces the bound address; everything after goes to
		// the shared buffer (locked: the drain goroutine keeps writing
		// while the test reads) for later assertions.
		sc := bufio.NewScanner(stdout)
		var addr string
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(buf, line)
			if strings.HasPrefix(line, "listening:") {
				// A cluster appends "(N shards, placement P)" to the address.
				if f := strings.Fields(strings.TrimPrefix(line, "listening:")); len(f) > 0 {
					addr = f[0]
				}
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			t.Fatalf("no listening line; output so far:\n%s", buf.String())
		}
		go func() {
			for sc.Scan() {
				fmt.Fprintln(buf, sc.Text())
			}
		}()
		return cmd, "http://" + addr, buf
	}

	waitReady := func(base string) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("service never became ready: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	cmd, base, _ := start()
	waitReady(base)

	// Admit one task over HTTP.
	body := `{"op":"add","task":{"task":{"Name":"web1","Period":40,"WCETAccurate":8,"WCETImprecise":3,
		"ExecAccurate":{"Mean":4,"Sigma":1,"Min":1,"Max":8},
		"ExecImprecise":{"Mean":1.5,"Sigma":0.4,"Min":1,"Max":3},
		"Error":{"Mean":2,"Sigma":0.5}}}}`
	resp, err := http.Post(base+"/admit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	admitOut, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d: %s", resp.StatusCode, admitOut)
	}
	// Malformed admissions are rejected at the door.
	resp, err = http.Post(base+"/admit", "application/json", strings.NewReader(`{"op":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad admit: %d, want 400", resp.StatusCode)
	}

	// /state reflects the admission.
	resp, err = http.Get(base + "/state")
	if err != nil {
		t.Fatal(err)
	}
	stateOut, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// One node reports its digest at the top level; a cluster reports one
	// per shard.
	var st struct {
		Ready    bool   `json:"ready"`
		Tasks    int    `json:"tasks"`
		Admitted uint64 `json:"admitted"`
		Digest   string `json:"digest"`
		PerShard []struct {
			Digest string `json:"digest"`
		} `json:"per_shard"`
	}
	if err := json.Unmarshal(stateOut, &st); err != nil {
		t.Fatalf("state: %v\n%s", err, stateOut)
	}
	digests := []string{st.Digest}
	if shards > 1 {
		if len(st.PerShard) != shards {
			t.Fatalf("state has %d per_shard rows, want %d: %s", len(st.PerShard), shards, stateOut)
		}
		digests = digests[:0]
		for _, row := range st.PerShard {
			digests = append(digests, row.Digest)
		}
	}
	if !st.Ready || st.Tasks != 1 || st.Admitted != 1 || slices.Contains(digests, "") {
		t.Errorf("state after admit: %s", stateOut)
	}

	// Graceful drain on SIGTERM: exit 0 and a drained marker.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve exit: %v", err)
	}

	// Restart on the same directory: state restores, service is ready
	// again, and the admitted task survived the restart.
	cmd, base, buf := start()
	waitReady(base)
	resp, err = http.Get(base + "/state")
	if err != nil {
		t.Fatal(err)
	}
	stateOut, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(stateOut, &st); err != nil {
		t.Fatalf("state: %v\n%s", err, stateOut)
	}
	if st.Tasks != 1 {
		t.Errorf("restarted state lost the task: %s", stateOut)
	}
	if !strings.Contains(buf.String(), "restored:") {
		t.Errorf("restart printed no restore line:\n%s", buf.String())
	}
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}

// TestE2EImpserveBatchIngest covers the group-commit ingest path end to
// end against the real binary: /admit/batch decisions in order, commit
// stats on /state, a loadgen run with zero errors, and a SIGTERM drain
// racing concurrent admissions — every acknowledged admission must
// survive into the restarted incarnation.
func TestE2EImpserveBatchIngest(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")

	start := func() (*exec.Cmd, string) {
		cmd := exec.Command(filepath.Join(binDir, "impserve"),
			"-dir", stateDir, "-listen", "127.0.0.1:0",
			"-epoch-interval", "10ms", "-queue", "64", "-commit-delay", "200us")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		var addr string
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening:"); ok {
				addr = strings.TrimSpace(rest)
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			t.Fatal("no listening line")
		}
		go func() {
			for sc.Scan() {
			}
		}()
		base := "http://" + addr
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("service never became ready: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		return cmd, base
	}

	addBody := func(name string) string {
		return `{"op":"add","task":{"task":{"Name":"` + name + `","Period":40,"WCETAccurate":8,"WCETImprecise":3,
			"ExecAccurate":{"Mean":4,"Sigma":1,"Min":1,"Max":8},
			"ExecImprecise":{"Mean":1.5,"Sigma":0.4,"Min":1,"Max":3},
			"Error":{"Mean":2,"Sigma":0.5}}}}`
	}
	readState := func(base string) (applied uint64, raw string) {
		resp, err := http.Get(base + "/state")
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st struct {
			EventsApplied uint64 `json:"events_applied"`
		}
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatalf("state: %v\n%s", err, out)
		}
		return st.EventsApplied, string(out)
	}

	cmd, base := start()

	// Batch admission: duplicate b1 inside the batch → per-event error in
	// position, the others admitted.
	batch := "[" + addBody("b1") + "," + addBody("b2") + "," + addBody("b1") + "]"
	resp, err := http.Post(base+"/admit/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	batchOut, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch admit: %d: %s", resp.StatusCode, batchOut)
	}
	var decs struct {
		Decisions []struct {
			Error string `json:"error"`
		} `json:"decisions"`
	}
	if err := json.Unmarshal(batchOut, &decs); err != nil {
		t.Fatalf("batch response: %v\n%s", err, batchOut)
	}
	if len(decs.Decisions) != 3 || decs.Decisions[0].Error != "" ||
		decs.Decisions[1].Error != "" || decs.Decisions[2].Error == "" {
		t.Fatalf("batch decisions out of order or miscounted: %s", batchOut)
	}
	applied, raw := readState(base)
	if applied != 3 {
		t.Errorf("events_applied %d after one 3-event batch, want 3: %s", applied, raw)
	}
	if !strings.Contains(raw, `"records_per_sync"`) {
		t.Errorf("state has no commit stats: %s", raw)
	}

	// A short closed-loop loadgen run: zero errors at trivial load.
	reportPath := filepath.Join(dir, "loadgen.json")
	lg := exec.Command(filepath.Join(binDir, "loadgen"),
		"-url", base, "-mode", "closed", "-conns", "4", "-batch", "2",
		"-duration", "500ms", "-fail-on-error", "-out", reportPath)
	if out, err := lg.CombinedOutput(); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out)
	}
	repOut, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requests uint64 `json:"requests"`
		Errors   uint64 `json:"errors"`
	}
	if err := json.Unmarshal(repOut, &rep); err != nil {
		t.Fatalf("loadgen report: %v\n%s", err, repOut)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("loadgen report: %s", repOut)
	}

	// SIGTERM racing concurrent admissions: every 200/409 answer is a
	// durability promise; 503s (shed mid-drain) and connection errors
	// (process gone) promise nothing.
	before, _ := readState(base)
	var accepted, attempts atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				attempts.Add(1)
				resp, err := http.Post(base+"/admit", "application/json",
					strings.NewReader(addBody(fmt.Sprintf("race%d-%d", g, i))))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
					accepted.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("drain exit: %v", err)
	}

	cmd, base = start()
	after, raw := readState(base)
	if after < before+accepted.Load() {
		t.Errorf("restart lost acknowledged admissions: %d applied, want ≥ %d+%d: %s",
			after, before, accepted.Load(), raw)
	}
	if after > before+attempts.Load() {
		t.Errorf("restart invented admissions: %d applied, only %d attempted after %d: %s",
			after, attempts.Load(), before, raw)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}

// lockedBuf is a mutex-guarded output sink: the child-process drain
// goroutine writes while the test goroutine reads.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestE2EImpserveFsck pins the offline scrub contract: a clean replicated
// store scrubs to exit 0, and a silently flipped byte in the middle of a
// replica WAL — damage that recovery's torn-tail repair would truncate
// away without noticing — turns into exit 6 with a per-file report.
func TestE2EImpserveFsck(t *testing.T) {
	dir := t.TempDir()
	tape := filepath.Join(dir, "tape.json")
	if out, err := runTool(t, "impserve", "-gen", "40", "-seed", "5", "-tape", tape); err != nil {
		t.Fatalf("gen: %v\n%s", err, out)
	}
	state := filepath.Join(dir, "state")
	if out, err := runTool(t, "impserve", "-tape", tape, "-dir", state,
		"-shards", "2", "-replicas", "1", "-quiet"); err != nil {
		t.Fatalf("play: %v\n%s", err, out)
	}

	code, out := exitCode(t, "impserve", "-fsck", "-dir", state)
	if code != 0 {
		t.Fatalf("clean store scrub exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "0 corrupt") || !strings.Contains(out, "shard-001.r1") {
		t.Errorf("clean scrub summary missing journals:\n%s", out)
	}

	// Flip one byte early in a follower's WAL: a sealed region far from
	// the tail, where only a CRC walk would ever notice.
	segs, err := filepath.Glob(filepath.Join(state, "shard-001.r1", "wal", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no replica segments (%v): %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x41}, 200); err != nil {
		t.Fatal(err)
	}
	f.Close()

	code, out = exitCode(t, "impserve", "-fsck", "-dir", state)
	if code != 6 {
		t.Fatalf("corrupt store scrub exit %d, want 6:\n%s", code, out)
	}
	if !strings.Contains(out, "CORRUPT") || !strings.Contains(out, "shard-001.r1") {
		t.Errorf("corrupt report missing the damaged file:\n%s", out)
	}
}
