// Command perfbench is the repository's benchmark. One run offers one
// workload, generated from --seed, for --seconds, checks that every output
// is correct, and prints each metric by name with its unit. The last line
// of standard output is the result as one JSON object.
//
//	perfbench --workload ingest-batch-1shard --seed 1 --seconds 10 --trace 0
//
// --trace 0 runs the end-to-end measurement against a real impserve
// process (or, for offline-plan, in process) and reports the end-to-end
// metrics. --trace 1 runs a shorter end-to-end phase and then the traced
// replay, which drives the workload's request sequence serially through
// each layer's public entry points, and reports the per-layer metrics.
// --trace 2 does both and reports everything. The exit code is 0 when
// every correctness gate passed, 1 when one failed (the result line is
// still printed), and 2 when the run could not be made.
//
// See README.md in this directory for the workloads, metrics and gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	schedrt "nprt/internal/runtime"
)

const (
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 21
	// maxSteal is the host steal share above which a run is marked invalid:
	// on the VM this benchmark was built on, a process's CPU time per unit
	// of work rose with steal (55 us per event at 2 % steal, 63 at 16 %).
	maxSteal = 0.10
)

type metric struct {
	name, unit string
	value      float64
	note       string
}

// outcome is one measured phase: its metrics and what went wrong. info
// metrics are printed and recorded in env: but not gated.
type outcome struct {
	e2e, layers []metric
	info        []metric
	attempted   int
	failed      int
	failures    []string
	lagMs       []float64
	notes       map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// invalid marks the run as not counting as a regression: something other
// than the system under test (the generator, the host) fell behind.
func (o *outcome) invalid(reason string) {
	o.note("valid", false)
	o.note("invalid_reason", reason)
}

// checkSteal marks the run invalid when the host gave more than maxSteal
// of its CPU time to other guests over the measurement.
func (o *outcome) checkSteal(steal float64) {
	if steal > maxSteal {
		o.invalid(fmt.Sprintf("host steal share %.3f exceeds %.2f", steal, maxSteal))
	}
}

func (o *outcome) note(k string, v any) {
	if o.notes == nil {
		o.notes = map[string]any{}
	}
	o.notes[k] = v
}

type options struct {
	workload    workload
	seed        uint64
	seconds     float64
	trace       int
	bin         string
	work        string
	injectStale bool
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced per-layer metrics, 2: both")
	out := fs.String("out", ".bench_build", "build and scratch directory (holds the impserve binary)")
	writeRef := fs.Bool("write-ref", false, "recompute the offline-plan reference and exit")
	injectStale := fs.Bool("inject-stale", false, "gate self-test: send one stale request after the load")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *writeRef {
		if err := writeOfflineRef(refPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || *trace < 0 || *trace > 2 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1|2\n", workloadNames())
		return 2
	}
	o := options{workload: w, seed: *seed, seconds: float64(*seconds), trace: *trace,
		bin: filepath.Join(*out, "impserve"), work: filepath.Join(*out, "work", w.name), injectStale: *injectStale}
	defer os.RemoveAll(o.work)

	var phases []*outcome
	if o.trace != 1 {
		e2e, err := runE2E(o, o.seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		phases = append(phases, e2e)
	}
	if o.trace != 0 {
		tr, err := runTraced(o, filepath.Join(*out, "trace"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		phases = append(phases, tr)
	}
	return report(o, phases)
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// runE2E runs the workload's end-to-end measurement.
func runE2E(o options, seconds float64) (*outcome, error) {
	if o.workload.offline {
		return runOffline(o.seed, seconds)
	}
	return runHTTP(o, seconds)
}

// runHTTP measures one HTTP workload against impserve: set up
// setupRepeats times (the last server stays up), offer the load, then
// check the server's counters against the generator's tallies.
func runHTTP(o options, seconds float64) (*outcome, error) {
	w := o.workload
	if _, err := os.Stat(o.bin); err != nil {
		return nil, fmt.Errorf("impserve binary: %w", err)
	}
	var setups []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		s, d, err := startServer(o.bin, filepath.Join(o.work, fmt.Sprintf("srv%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			s.stop()
			continue
		}
		srv = s
	}
	defer srv.stop()

	from := time.Now().Add(time.Duration(w.warmup * float64(time.Second)))
	win := window{from: from, to: from.Add(time.Duration(seconds * float64(time.Second)))}
	// The server's CPU time and the host's steal over the window, read at
	// its two ends.
	cpu := make(chan [3]float64, 1)
	go func() {
		time.Sleep(time.Until(win.from))
		a, _ := cpuSeconds(srv.cmd.Process.Pid)
		steal := stealMeter()
		time.Sleep(time.Until(win.to))
		b, _ := cpuSeconds(srv.cmd.Process.Pid)
		cpu <- [3]float64{a, b, steal()}
	}()
	t, models := closedLoop(srv.url, w, o.seed, win)
	if o.injectStale {
		// A remove of a name never added: the gates must fail the run.
		stale := []schedrt.Event{{Op: "remove", Name: "never-added"}}
		for len(stale) < w.batch {
			stale = append(stale, models[0].add())
		}
		ents, err := post(newHTTPClient(), srv.url, stale)
		now := time.Now()
		account(t, window{}, models[0], stale, ents, err, now, now, 0)
	}

	out := &outcome{attempted: t.requests, failed: t.failed, failures: t.failures, lagMs: t.lagMs}
	cpuWin := <-cpu
	cpuS, stolen := cpuWin[1]-cpuWin[0], cpuWin[2]
	winEvents := 0
	for _, c := range t.completed {
		winEvents += c.events
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var st serverState
	if err := srv.state(&st); err != nil {
		return nil, err
	}
	srv.stop()

	// Gates: every acknowledged event was applied exactly once, the
	// counters match the generator's tallies, and the resident set
	// matches the generator's model.
	resident := 0
	for _, m := range models {
		resident += len(m.resident)
	}
	check := func(what string, got, want uint64) {
		if got != want {
			out.fail("/state %s = %d, generator counted %d", what, got, want)
		}
	}
	check("events_applied", st.EventsApplied, t.events)
	check("admitted", st.Admitted, t.admitted)
	check("rejected", st.Rejected, t.rejected)
	check("tasks", uint64(st.Tasks), uint64(resident))
	check("load_shed", st.LoadShed, 0)

	if lag99 := quantile(t.lagMs, 0.99); lag99 > w.maxLagMs {
		out.invalid(fmt.Sprintf("generator lateness p99 %.1f ms exceeds %.0f ms", lag99, w.maxLagMs))
	}
	out.checkSteal(stolen)
	out.note("records_per_sync", ratio(float64(st.Commit.Records), float64(st.Commit.Syncs)))
	out.note("resident_tasks", resident)
	out.note("lag_ms_p50", quantile(t.lagMs, 0.5))
	n := fmt.Sprintf("n=%d; median of %d slices", len(t.latMs), subWindows)
	evRate, admitRate := t.rates(win)
	out.e2e = []metric{
		{"setup_s", "s", median(setups), "exec until /readyz is 200"},
		{"cpu_us_per_event", "us", cpuS * 1e6 / float64(max(winEvents, 1)),
			fmt.Sprintf("impserve user+system CPU over the window, %d events", winEvents)},
		{"peak_rss_mb", "MB", rss, "impserve VmHWM"},
	}
	out.info = []metric{
		{"events_per_s", "1/s", evRate, fmt.Sprintf("%d completions; median of %d slices", len(t.completed), subWindows)},
		{"admits_per_s", "1/s", admitRate, ""},
		{"latency_p50_ms", "ms", windowedQuantile(t.latMs, t.latAt, seconds, 0.5), n},
		{"latency_p99_ms", "ms", windowedQuantile(t.latMs, t.latAt, seconds, 0.99), n},
		{"steal_share", "share", stolen, "CPU time the hypervisor gave to other guests"},
	}
	return out, nil
}

// runTraced runs a short end-to-end phase (for the generator's lateness
// and the server's commit grouping), then the traced replay twice — spans
// off, then on — and reports the per-layer metrics from the traced pass.
func runTraced(o options, traceDir string) (*outcome, error) {
	e2e, err := runE2E(o, min(o.seconds, 5))
	if err != nil {
		return nil, err
	}
	w := o.workload
	genDir := filepath.Join(o.work, "gen")
	var in *replayInput
	if w.offline {
		in, err = generateOfflineInput(o.seed, genDir)
	} else {
		in, err = generateHTTPInput(w, o.seed, genDir)
	}
	if err != nil {
		return nil, err
	}
	off, err := replay(in, filepath.Join(o.work, "replay-off"), newTracer(false))
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	ls, err := replay(in, filepath.Join(o.work, "replay-on"), tr)
	if err != nil {
		return nil, err
	}
	spans := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}

	// The short phase's own end-to-end metrics are not reported: they are
	// not the gate, and --trace 2 reports the full-length ones.
	out := &outcome{attempted: e2e.attempted, failed: e2e.failed, failures: e2e.failures, notes: e2e.notes}
	for _, m := range append(off.mismatches, ls.mismatches...) {
		out.fail("replay: %s", m)
	}
	out.failed += off.mismatchesCount + ls.mismatchesCount - len(off.mismatches) - len(ls.mismatches)
	if off.digest != ls.digest {
		out.fail("replay: repeated replay digest %016x != %016x", ls.digest, off.digest)
	}
	out.note("replay_digest", fmt.Sprintf("%016x", ls.digest))
	out.note("spans", spans)

	ev := float64(in.events())
	perEvent := func(d time.Duration) float64 { return us(d) / ev }
	recordsPerSync := ls.recordsPerSync
	if v, ok := e2e.notes["records_per_sync"].(float64); ok {
		recordsPerSync = v
	}
	out.layers = []metric{
		{"serve.handler_us_per_event", "us", perEvent(ls.serveHandler), ""},
		{"serve.self_us_per_event", "us", perEvent(ls.serveHandler - ls.storeApply), "handler minus store apply"},
		{"serve.allocs_per_event", "count", float64(ls.allocs) / ev, "whole process, serve-door pass"},
		{"serve.reply_bytes_per_event", "B", float64(ls.replyBytes) / ev, ""},
		{"cluster.handler_us_per_event", "us", perEvent(ls.clusterHandler), ""},
		{"cluster.route_us_per_event", "us", perEvent(ls.clusterApply - ls.storeApply), "Cluster.Apply minus store apply"},
		{"cluster.probe_us_per_event", "us", perEvent(ls.probeFirstFit), "first-fit placement probes"},
		{"runtime.store_apply_us_per_event", "us", perEvent(ls.storeApply), ""},
		{"runtime.add_us_p50", "us", quantile(ls.addUs, 0.5), fmt.Sprintf("n=%d", len(ls.addUs))},
		{"runtime.add_us_p99", "us", quantile(ls.addUs, 0.99), fmt.Sprintf("n=%d", len(ls.addUs))},
		{"runtime.add_self_us_p50", "us", quantile(ls.addSelfUs, 0.5), "Add minus task.New minus Profiles"},
		{"runtime.remove_us_p50", "us", quantile(ls.removeUs, 0.5), fmt.Sprintf("n=%d", len(ls.removeUs))},
		{"runtime.admit_share", "share", ratio(float64(ls.admits), float64(ls.adds)), fmt.Sprintf("%d of %d adds", ls.admits, ls.adds)},
		{"runtime.epoch_ms_p50", "ms", quantile(ls.epochMs, 0.5), fmt.Sprintf("n=%d", len(ls.epochMs))},
		{"feasibility.profiles_us_p50", "us", quantile(ls.profilesUs, 0.5), ""},
		{"feasibility.probe_us_p50", "us", quantile(ls.probeUs, 0.5), ""},
		{"task.new_us_p50", "us", quantile(ls.newUs, 0.5), ""},
		{"journal.commit_us_per_record", "us", us(ls.commit) / float64(max(ls.records, 1)), fmt.Sprintf("%d records", ls.records)},
		{"journal.fsync_us_p50", "us", quantile(ls.fsyncUs, 0.5), fmt.Sprintf("n=%d", len(ls.fsyncUs))},
		{"journal.fsync_us_p99", "us", quantile(ls.fsyncUs, 0.99), fmt.Sprintf("n=%d", len(ls.fsyncUs))},
		{"journal.records_per_sync", "count", recordsPerSync, ""},
		{"journal.wal_bytes_per_event", "B", float64(ls.walBytes) / ev, ""},
		{"sim.jobs_per_s", "1/s", ratio(float64(ls.simJobs), ls.simTime.Seconds()), ""},
		{"offline.optimize_modes_ms", "ms", ms(ls.optimize), fmt.Sprintf("%d plan sets", len(in.planSets))},
		{"offline.post_process_ms", "ms", ms(ls.post), ""},
		{"offline.flipped_edf_ms", "ms", ms(ls.flipped), ""},
		{"ilp.solve_ms", "ms", ms(ls.ilpSolve), ""},
		{"ilp.us_per_node", "us", us(ls.ilpSolve) / float64(max(ls.ilpNodes, 1)), ""},
		{"ilp.nodes", "count", float64(ls.ilpNodes), ""},
		{"client.lag_ms_p99", "ms", quantile(e2e.lagMs, 0.99), fmt.Sprintf("n=%d", len(e2e.lagMs))},
		{"trace.overhead_share", "share", ratio((ls.wall - off.wall).Seconds(), off.wall.Seconds()),
			fmt.Sprintf("replay %.2fs with spans, %.2fs without", ls.wall.Seconds(), off.wall.Seconds())},
	}
	return out, nil
}

// report prints the environment, the metric tables and the result line,
// and returns the exit code.
func report(o options, phases []*outcome) int {
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	env := environment(o)
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for k, v := range p.notes {
			env[k] = v
		}
		for _, f := range p.failures {
			fmt.Println("FAIL:", f)
		}
		for _, group := range []struct {
			title string
			ms    []metric
		}{{"end-to-end", p.e2e}, {"recorded, not gated", p.info}, {"per-layer (traced replay)", p.layers}} {
			if len(group.ms) == 0 {
				continue
			}
			fmt.Printf("%s metrics, %s seed %d:\n", group.title, o.workload.name, o.seed)
			for _, m := range group.ms {
				fmt.Printf("  %-34s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
			}
		}
		for _, m := range append(p.e2e, p.layers...) {
			res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
		for _, m := range p.info {
			env[m.name] = m.value
		}
	}
	res.Correct = res.Failed == 0
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envJSON)
	for name, m := range res.Metrics {
		if v, ok := m["value"].(float64); !ok || v != v {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", name)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// stealMeter starts measuring the share of CPU time the hypervisor gave
// to other guests (/proc/stat steal); the returned func reads it so far.
func stealMeter() func() float64 {
	read := func() (steal, total float64) {
		data, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
		for i, x := range f[1:] {
			var v float64
			fmt.Sscan(x, &v)
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	s0, t0 := read()
	return func() float64 {
		s1, t1 := read()
		return ratio(s1-s0, t1-t0)
	}
}

// environment records what the numbers were measured on.
func environment(o options) map[string]any {
	env := map[string]any{
		"workload": o.workload.name, "seed": o.seed, "seconds": o.seconds,
		"nproc": goruntime.NumCPU(), "go": goruntime.Version(),
		"cpu":   cpuModel(),
		"flush": "impserve defaults: fsync on, group commit 64 records / 500us",
		"valid": true,
	}
	if abs, err := filepath.Abs(o.work); err == nil {
		env["state_fs"] = fsType(abs)
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// fsType is the type of the mount holding path (longest mount prefix).
func fsType(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (path == mnt || strings.HasPrefix(path, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, f[2]
		}
	}
	return typ
}
