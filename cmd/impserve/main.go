// Command impserve runs the long-running scheduler runtime as a daemon:
// an admission-controlled task set that churns over an event tape, with
// the overload governor live and durable state across restarts.
//
// Usage:
//
//	impserve -gen 2000 -seed 1 -tape churn.json      # write a churn tape
//	impserve -tape churn.json -checkpoint state.json # serve it (in-memory)
//	impserve -restore state.json -tape churn.json    # resume after a kill
//	impserve -tape churn.json -dir state/            # serve it (durable WAL)
//	impserve -dir state/ -listen 127.0.0.1:8080      # supervised HTTP service
//	impserve -sweep -sweep-out sweep.json            # crash-point sweep proof
//	impserve -fsck -dir state/                       # offline integrity scrub
//
// The daemon advances one epoch at a time. On SIGINT or SIGTERM it
// finishes the epoch in flight, makes the state durable, and exits with
// code 4 (tape modes) or 0 (serve mode, after a graceful drain);
// restarting resumes bit-identically to a run that was never interrupted
// — the final digest is the proof (compare the "digest" lines).
//
// With -dir the state is crash-only: every mutation is journaled to a
// write-ahead log before it is applied, and restart recovers from the
// newest good checkpoint plus a digest-cross-checked replay. -sweep holds
// the proof obligation mechanically — it re-executes this binary, killing
// it at every fsync boundary (exit code 7), and verifies each recovery
// reaches the uncrashed digest on both dispatch engines.
//
// Exit codes (extending the schedcheck convention, where 3 means
// unschedulable):
//
//	0  the tape was played to the horizon / the service drained cleanly /
//	   the sweep passed
//	1  internal error, or a sweep point failed to recover
//	2  invalid input (unreadable tape or checkpoint, bad flags,
//	   -strict lint failure)
//	4  interrupted by signal; state is durable (-dir) or checkpointed
//	   (-checkpoint) at an epoch boundary
//	5  serve mode: restart budget exhausted
//	6  -fsck found silent corruption (CRC mismatch, bad checkpoint)
//	7  self-inflicted crash at an fsync boundary (-crash-after-fsync)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"nprt/internal/cluster"
	"nprt/internal/experiments"
	schedrt "nprt/internal/runtime"
	"nprt/internal/serve"
	"nprt/internal/sim"
)

const (
	exitOK           = 0
	exitInternal     = 1
	exitInvalidInput = 2
	exitInterrupted  = 4
	exitBudget       = 5
	exitCorrupt      = 6
	exitCrashPoint   = 7
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := newFlagSet()
	if err := fs.fs.Parse(os.Args[1:]); err != nil {
		return exitInvalidInput
	}
	if *fs.shards < 1 {
		fmt.Fprintln(os.Stderr, "impserve: -shards must be at least 1")
		return exitInvalidInput
	}
	if *fs.shards > 1 && *fs.dir == "" && !*fs.sweep {
		fmt.Fprintln(os.Stderr, "impserve: -shards needs -dir (shard stores are durable)")
		return exitInvalidInput
	}

	switch {
	case *fs.fsck:
		return runFsck(fs)
	case *fs.sweep: // before -gen: the sweep reuses -gen as its tape size
		return runSweep(fs)
	case *fs.gen > 0:
		return generate(fs)
	case *fs.listen != "":
		return runServe(fs)
	case *fs.dir != "":
		return runDurable(fs)
	}

	if *fs.tape == "" {
		fmt.Fprintln(os.Stderr, "impserve: -tape is required (or -gen N to create one)")
		return exitInvalidInput
	}
	tp, err := readTape(*fs.tape, *fs.strict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInvalidInput
	}

	r, code := makeRuntime(fs)
	if r == nil {
		return code
	}

	horizon := tapeHorizon(fs, tp)
	if r.Epoch() >= horizon {
		fmt.Fprintf(os.Stderr, "impserve: checkpoint is already at epoch %d, horizon is %d\n",
			r.Epoch(), horizon)
		return exitInvalidInput
	}

	jsonl, code := openJSONL(fs)
	if jsonl != nil {
		defer jsonl.Close()
	} else if code != exitOK {
		return code
	}

	// One Play call per epoch so the signal check lands exactly on epoch
	// boundaries: an epoch is the unit of commitment, so it is also the
	// unit of interruption.
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	interrupted := false
	for r.Epoch() < horizon && !interrupted {
		select {
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "impserve: %v: checkpointing at epoch %d\n", sig, r.Epoch())
			interrupted = true
			continue
		default:
		}
		err := r.Play(tp, r.Epoch()+1,
			epochLogger(fs, jsonl),
			decisionLogger(fs, r.Epoch),
			staleTolerant(fs, r.Epoch))
		if err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
	}

	if *fs.checkpoint != "" {
		if err := writeCheckpoint(*fs.checkpoint, r); err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
		fmt.Printf("checkpoint:  %s\n", *fs.checkpoint)
	}
	printSummary(r, horizon)
	if interrupted {
		return exitInterrupted
	}
	return exitOK
}

// runDurable is the -dir tape mode: the same play loop, but over a
// crash-only store — every mutation journaled before it is applied, a
// checkpoint every -checkpoint-every epochs, recovery on open.
func runDurable(fs flags) int {
	if *fs.shards > 1 {
		return runDurableCluster(fs)
	}
	if *fs.tape == "" {
		fmt.Fprintln(os.Stderr, "impserve: -dir needs -tape (or -listen for the HTTP service)")
		return exitInvalidInput
	}
	if *fs.restore != "" || *fs.checkpoint != "" {
		fmt.Fprintln(os.Stderr, "impserve: -dir manages its own checkpoints; drop -restore/-checkpoint")
		return exitInvalidInput
	}
	tp, err := readTape(*fs.tape, *fs.strict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInvalidInput
	}
	opts, code := runtimeOptions(fs)
	if code != exitOK {
		return code
	}

	fsyncs := 0
	st, err := schedrt.OpenStore(*fs.dir, schedrt.StoreOptions{
		Runtime:     opts,
		AfterSync:   crashHook(fs, &fsyncs),
		CommitBatch: *fs.commitBatch,
		CommitDelay: *fs.commitDelay,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "impserve: opening store %s: %v\n", *fs.dir, err)
		return exitInvalidInput
	}
	defer st.Close()
	if rec := st.Recovery(); rec.FromCheckpoint != "" || rec.ReplayedEvents+rec.ReplayedEpochs > 0 {
		fmt.Printf("restored:    %s at epoch %d (digest %016x, %d fallbacks, replayed %d events + %d epochs)\n",
			*fs.dir, rec.Epoch, rec.Digest, rec.CheckpointFallbacks, rec.ReplayedEvents, rec.ReplayedEpochs)
	}

	horizon := tapeHorizon(fs, tp)
	jsonl, code := openJSONL(fs)
	if jsonl != nil {
		defer jsonl.Close()
	} else if code != exitOK {
		return code
	}

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	every := *fs.ckptEvery
	interrupted := false
	for st.Epoch() < horizon && !interrupted {
		select {
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "impserve: %v: state is durable at epoch %d\n", sig, st.Epoch())
			interrupted = true
			continue
		default:
		}
		err := st.PlayTape(tp, st.Epoch()+1,
			epochLogger(fs, jsonl),
			decisionLogger(fs, st.Epoch),
			staleTolerant(fs, st.Epoch))
		if err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
		if every > 0 && st.Epoch()%int64(every) == 0 {
			if _, err := st.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "impserve:", err)
				return exitInternal
			}
		}
	}

	// A final checkpoint bounds the next open's replay; the journal alone
	// would recover identically, just more slowly.
	path, err := st.Checkpoint()
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
	fmt.Printf("checkpoint:  %s\n", path)
	printSummary(st.Runtime(), horizon)
	fmt.Printf("fsyncs:      %d\n", fsyncs)
	if interrupted {
		return exitInterrupted
	}
	return exitOK
}

// runServe is the supervised HTTP service: the listener binds first (so
// probes see "alive, not ready" instead of connection refused), then each
// supervisor incarnation recovers the store, attaches the control plane,
// and serves until a fatal store error (restart, with backoff) or a
// signal (graceful drain, exit 0).
func runServe(fs flags) int {
	if *fs.dir == "" {
		fmt.Fprintln(os.Stderr, "impserve: -listen needs -dir (the service is durable or it is nothing)")
		return exitInvalidInput
	}
	if *fs.tape != "" {
		fmt.Fprintln(os.Stderr, "impserve: -listen and -tape are exclusive; the service admits over HTTP")
		return exitInvalidInput
	}
	if *fs.shards > 1 {
		return runServeCluster(fs)
	}
	return serveLoop(fs, "", func(opts schedrt.Options, fsyncs *int) (*incarnation, error) {
		st, err := schedrt.OpenStore(*fs.dir, schedrt.StoreOptions{
			Runtime:     opts,
			AfterSync:   crashHook(fs, fsyncs),
			CommitBatch: *fs.commitBatch,
			CommitDelay: *fs.commitDelay,
		})
		if err != nil {
			return nil, err
		}
		if rec := st.Recovery(); rec.FromCheckpoint != "" || rec.ReplayedEvents+rec.ReplayedEpochs > 0 {
			fmt.Printf("restored:    %s at epoch %d (digest %016x, %d fallbacks, replayed %d events + %d epochs)\n",
				*fs.dir, rec.Epoch, rec.Digest, rec.CheckpointFallbacks, rec.ReplayedEvents, rec.ReplayedEpochs)
		}
		srv := serve.New(serve.Options{
			QueueDepth:      *fs.queue,
			EpochInterval:   *fs.epochEvery,
			CheckpointEvery: *fs.ckptEvery,
			CoDelTarget:     *fs.codelTarget,
			Logf:            func(f string, a ...any) { fmt.Fprintf(os.Stderr, "impserve: "+f+"\n", a...) },
		})
		return &incarnation{
			plane:  srv,
			attach: func() { srv.Attach(st) },
			epoch:  st.Epoch,
			digest: st.Digest,
			close:  st.Close,
		}, nil
	})
}

// controlPlane is the HTTP server one incarnation attaches its recovered
// state to: serve.Server on one node, cluster.Server across shards.
type controlPlane interface {
	Handler() http.Handler
	Fatal() <-chan error
	Shutdown(context.Context) error
}

// incarnation is one supervised life of the service: recovered state and
// the control plane that will serve it.
type incarnation struct {
	plane controlPlane
	// attach hands the recovered state to plane.
	attach func()
	epoch  func() int64
	digest func() uint64
	close  func() error
}

// serveLoop is the supervised HTTP service at either width. The listener
// binds first (so probes see "alive, not ready" instead of connection
// refused) and its listening: line carries the width's suffix; then each
// supervisor incarnation opens recovered state, attaches the control
// plane, and serves until a fatal store error (restart, with backoff) or
// a signal (graceful drain, exit 0).
func serveLoop(fs flags, listening string, open func(opts schedrt.Options, fsyncs *int) (*incarnation, error)) int {
	opts, code := runtimeOptions(fs)
	if code != exitOK {
		return code
	}

	ln, err := net.Listen("tcp", *fs.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInvalidInput
	}
	fmt.Printf("listening:   %s%s\n", ln.Addr(), listening)

	// The handler indirection outlives any single incarnation: between
	// restarts (and before the first attach) everything but /healthz is 503.
	var current atomic.Pointer[http.Handler]
	httpSrv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := current.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			if r.URL.Path == "/healthz" {
				fmt.Fprintln(w, "ok")
				return
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error": "restarting"}`, http.StatusServiceUnavailable)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go httpSrv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fsyncs := 0
	sup := &serve.Supervisor{
		MaxRestarts: *fs.maxRestarts,
		ResetAfter:  *fs.restartReset,
		OnRestart: func(attempt int, err error, delay time.Duration) {
			fmt.Fprintf(os.Stderr, "impserve: incarnation %d died (%v); restarting in %v\n", attempt, err, delay)
		},
	}
	err = sup.Run(ctx, func(ctx context.Context) error {
		inc, err := open(opts, &fsyncs)
		if err != nil {
			return err
		}
		defer inc.close()
		h := inc.plane.Handler()
		current.Store(&h)
		defer current.Store(nil)
		inc.attach()

		select {
		case err := <-inc.plane.Fatal():
			shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			inc.plane.Shutdown(shctx)
			return err
		case <-ctx.Done():
			// Graceful drain: bar the door, apply everything accepted,
			// leave the journal clean. Exit 0 — recovery needs nothing.
			shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := inc.plane.Shutdown(shctx); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
			fmt.Printf("drained:     epoch %d\n", inc.epoch())
			fmt.Printf("epochs:      %d\n", inc.epoch())
			fmt.Printf("digest:      %016x\n", inc.digest())
			return nil
		}
	})
	switch {
	case err == nil, errors.Is(err, context.Canceled):
		return exitOK
	case errors.Is(err, serve.ErrRestartBudget):
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitBudget
	default:
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
}

// crashHook returns the AfterSync hook: count fsync boundaries and, with
// -crash-after-fsync N, die with exit 7 at the Nth — mid-operation, no
// cleanup, exactly like a power cut that respected fsync ordering.
func crashHook(fs flags, fsyncs *int) func() {
	return func() {
		*fsyncs++
		if *fs.crashAfter > 0 && *fsyncs == *fs.crashAfter {
			fmt.Fprintf(os.Stderr, "impserve: crash point %d reached\n", *fs.crashAfter)
			os.Exit(exitCrashPoint)
		}
	}
}

// --- crash-point sweep -------------------------------------------------

// sweepPoint is one kill-and-recover probe in the sweep artifact.
type sweepPoint struct {
	Point           int    `json:"point"`
	CrashExit       int    `json:"crash_exit"`
	RecoveredDigest string `json:"recovered_digest"`
	Restored        bool   `json:"restored"`
	OK              bool   `json:"ok"`
}

type sweepEngine struct {
	Engine         string       `json:"engine"`
	Fsyncs         int          `json:"fsyncs"`
	BaselineDigest string       `json:"baseline_digest"`
	Points         []sweepPoint `json:"points"`
	AllOK          bool         `json:"all_ok"`
}

type sweepReport struct {
	Seed    uint64        `json:"seed"`
	Events  int           `json:"events"`
	Horizon int64         `json:"horizon,omitempty"`
	Engines []sweepEngine `json:"engines"`
	AllOK   bool          `json:"all_ok"`
}

// runSweep is the mechanical crash-consistency proof: generate a churn
// tape, run it once uncrashed per engine to learn the fsync count K and
// the reference digest, then for every point 1..K re-execute this binary
// with -crash-after-fsync (expect exit 7) and once more to recover
// (expect exit 0 and the reference digest). Any divergence fails the
// sweep.
func runSweep(fs flags) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
	root := *fs.dir
	if root == "" {
		root, err = os.MkdirTemp("", "impserve-sweep-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
		defer os.RemoveAll(root)
	} else if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}

	events := *fs.gen
	if events <= 0 {
		events = 12
	}
	tp := experiments.GenerateChurnTape(*fs.seed, events)
	tapePath := filepath.Join(root, "tape.json")
	if code := writeTape(tapePath, tp); code != exitOK {
		return code
	}

	engines := []string{"indexed", "linear"}
	if *fs.sweepEngine != "" {
		engines = []string{*fs.sweepEngine}
	}
	report := sweepReport{Seed: *fs.seed, Events: len(tp.Events), Horizon: *fs.epochs, AllOK: true}

	common := []string{"-tape", tapePath, "-seed", fmt.Sprint(*fs.seed),
		"-hp", fmt.Sprint(*fs.hp), "-quiet"}
	if *fs.epochs > 0 {
		common = append(common, "-epochs", fmt.Sprint(*fs.epochs))
	}
	// The sweep proves whatever width it is asked about: with -shards the
	// children run the cluster tape mode, and the digest line under
	// comparison is the folded whole-cluster digest. -replicas rides along,
	// so the sweep can also prove crash recovery with followers attached.
	if *fs.shards > 1 {
		common = append(common, "-shards", fmt.Sprint(*fs.shards))
		if *fs.placement != "" {
			common = append(common, "-placement", *fs.placement)
		}
		if *fs.replicas > 0 {
			common = append(common, "-replicas", fmt.Sprint(*fs.replicas))
		}
	}
	for _, eng := range engines {
		args := append([]string{"-engine", eng}, common...)
		baseDir := filepath.Join(root, eng+"-baseline")
		out, code, err := runSelf(exe, append(args, "-dir", baseDir)...)
		if err != nil || code != exitOK {
			fmt.Fprintf(os.Stderr, "impserve: sweep baseline (%s) exited %d: %v\n%s\n", eng, code, err, out)
			return exitInternal
		}
		baseline := outputField(out, "digest:")
		k := 0
		fmt.Sscanf(outputField(out, "fsyncs:"), "%d", &k)
		if baseline == "" || k == 0 {
			fmt.Fprintf(os.Stderr, "impserve: sweep baseline (%s) output missing digest/fsyncs:\n%s\n", eng, out)
			return exitInternal
		}

		er := sweepEngine{Engine: eng, Fsyncs: k, BaselineDigest: baseline, AllOK: true}
		for p := 1; p <= k; p++ {
			dir := filepath.Join(root, fmt.Sprintf("%s-p%03d", eng, p))
			pt := sweepPoint{Point: p}
			_, pt.CrashExit, _ = runSelf(exe, append(args, "-dir", dir, "-crash-after-fsync", fmt.Sprint(p))...)
			out, code, _ := runSelf(exe, append(args, "-dir", dir)...)
			pt.RecoveredDigest = outputField(out, "digest:")
			pt.Restored = strings.Contains(out, "restored:")
			pt.OK = pt.CrashExit == exitCrashPoint && code == exitOK && pt.RecoveredDigest == baseline
			if !pt.OK {
				er.AllOK = false
				report.AllOK = false
				fmt.Fprintf(os.Stderr, "impserve: sweep point %s/%d FAILED: crash exit %d, recover exit %d, digest %q (want %q)\n",
					eng, p, pt.CrashExit, code, pt.RecoveredDigest, baseline)
			}
			er.Points = append(er.Points, pt)
			os.RemoveAll(dir)
		}
		recovered := 0
		for _, pt := range er.Points {
			if pt.OK {
				recovered++
			}
		}
		fmt.Printf("sweep:       engine %s: %d/%d crash points recovered to digest %s\n",
			eng, recovered, k, baseline)
		report.Engines = append(report.Engines, er)
	}

	if *fs.sweepOut != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*fs.sweepOut, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
		fmt.Printf("sweep-out:   %s\n", *fs.sweepOut)
	}
	if !report.AllOK {
		return exitInternal
	}
	return exitOK
}

// runSelf re-executes this binary with args, returning combined output
// and the exit code.
func runSelf(exe string, args ...string) (string, int, error) {
	cmd := exec.Command(exe, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return string(out), ee.ExitCode(), nil
		}
		return string(out), -1, err
	}
	return string(out), 0, nil
}

// outputField extracts the value of a "label:  value" summary line.
func outputField(out, label string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, label); ok {
			return strings.Fields(rest)[0]
		}
	}
	return ""
}

// --- shared helpers ----------------------------------------------------

type flags struct {
	fs         *flag.FlagSet
	tape       *string
	epochs     *int64
	hp         *int
	seed       *uint64
	engine     *string
	checkpoint *string
	restore    *string
	jsonl      *string
	quiet      *bool
	gen        *int

	dir         *string
	strict      *bool
	ckptEvery   *int
	listen      *string
	queue       *int
	epochEvery  *time.Duration
	maxRestarts *int
	commitBatch *int
	commitDelay *time.Duration
	crashAfter  *int
	sweep       *bool
	sweepOut    *string
	sweepEngine *string

	shards         *int
	replicas       *int
	placement      *string
	shardParallel  *bool
	rebalanceEvery *int
	restartReset   *time.Duration
	fsck           *bool

	latencySLO  *time.Duration
	deadline    *time.Duration
	codelTarget *time.Duration
	watchdog    *time.Duration
}

func newFlagSet() flags {
	fs := flag.NewFlagSet("impserve", flag.ContinueOnError)
	return flags{
		fs:         fs,
		tape:       fs.String("tape", "", "event tape (JSON; see -gen)"),
		epochs:     fs.Int64("epochs", 0, "horizon in epochs (default: last tape event + 32)"),
		hp:         fs.Int("hp", 1, "hyper-periods per epoch"),
		seed:       fs.Uint64("seed", 1, "root random seed (ignored with -restore)"),
		engine:     fs.String("engine", "indexed", "dispatch engine: indexed or linear"),
		checkpoint: fs.String("checkpoint", "", "write the state snapshot here on exit or signal"),
		restore:    fs.String("restore", "", "resume from this snapshot instead of starting fresh"),
		jsonl:      fs.String("jsonl", "", "append one JSON epoch report per line to this file"),
		quiet:      fs.Bool("quiet", false, "suppress per-decision and governor logging"),
		gen:        fs.Int("gen", 0, "generate a churn tape with this many events into -tape and exit"),

		dir:         fs.String("dir", "", "durable state directory (write-ahead journal + checkpoints)"),
		strict:      fs.Bool("strict", false, "reject tapes with duplicate adds, unknown removes or non-monotonic epochs"),
		ckptEvery:   fs.Int("checkpoint-every", 8, "durable modes: checkpoint every N epochs"),
		listen:      fs.String("listen", "", "serve mode: HTTP control plane address (requires -dir)"),
		queue:       fs.Int("queue", 16, "serve mode: admission queue depth (load-shed beyond it)"),
		epochEvery:  fs.Duration("epoch-interval", 50*time.Millisecond, "serve mode: run an epoch this often (0 disables)"),
		maxRestarts: fs.Int("max-restarts", 5, "serve mode: supervisor restart budget"),
		commitBatch: fs.Int("commit-batch", 0, "durable modes: max records per group commit (0: default 64)"),
		commitDelay: fs.Duration("commit-delay", 0, "durable modes: group-commit stall window (0: default 500µs, negative disables)"),
		crashAfter:  fs.Int("crash-after-fsync", 0, "testing: exit 7 at the Nth fsync boundary"),
		sweep:       fs.Bool("sweep", false, "run the crash-point sweep (kill at every fsync, verify recovery digests) and exit"),
		sweepOut:    fs.String("sweep-out", "", "sweep mode: write the JSON artifact here"),
		sweepEngine: fs.String("sweep-engine", "", "sweep mode: restrict to one engine (default: both)"),

		shards:         fs.Int("shards", 1, "durable modes: partition the state across this many shard stores"),
		replicas:       fs.Int("replicas", 0, "cluster modes: synchronous followers per shard (0 disables replication)"),
		placement:      fs.String("placement", "", "cluster placement policy: "+strings.Join(cluster.PolicyNames(), ", ")+" (default first-fit)"),
		shardParallel:  fs.Bool("shard-parallel", false, "cluster tape mode: concurrent group-commit drive (durable resume needs the serial default)"),
		rebalanceEvery: fs.Int("rebalance-every", 0, "cluster tape mode: run the skew-triggered rebalancer every N epochs (0 disables)"),
		restartReset:   fs.Duration("restart-reset", 0, "serve mode: forgive the restart budget after an incarnation stays up this long (0 disables)"),
		fsck:           fs.Bool("fsck", false, "scrub every checkpoint and WAL segment under -dir offline and exit (6 on corruption)"),

		latencySLO:  fs.Duration("latency-slo", 0, "cluster modes: fence a shard from placement when its windowed WAL-sojourn p99 exceeds this; with replicas, proactively promote away from the slow primary (0 disables)"),
		deadline:    fs.Duration("deadline", 0, "cluster modes: default admission deadline — shed routes to over-SLO shards instead of blowing it (0 disables; per-request X-Deadline-Ms still honored)"),
		codelTarget: fs.Duration("codel-target", 0, "serve modes: CoDel sojourn target for adaptive admission-queue shedding (0 disables; deadline sheds and drain-rate Retry-After hints stay on)"),
		watchdog:    fs.Duration("watchdog", 0, "cluster serve mode: flag a shard Slow when its engine sits inside one store op longer than this (0 disables)"),
	}
}

func runtimeOptions(fs flags) (schedrt.Options, int) {
	var engine sim.EngineKind
	switch *fs.engine {
	case "indexed":
		engine = sim.EngineIndexed
	case "linear":
		engine = sim.EngineLinearScan
	default:
		fmt.Fprintf(os.Stderr, "impserve: unknown engine %q (indexed or linear)\n", *fs.engine)
		return schedrt.Options{}, exitInvalidInput
	}
	return schedrt.Options{
		Seed:              *fs.seed,
		Engine:            engine,
		EpochHyperperiods: *fs.hp,
	}, exitOK
}

// makeRuntime builds the in-memory runtime from flags — fresh or from a
// legacy checkpoint.
func makeRuntime(fs flags) (*schedrt.Runtime, int) {
	if *fs.restore != "" {
		f, err := os.Open(*fs.restore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return nil, exitInvalidInput
		}
		defer f.Close()
		r, err := schedrt.Restore(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "impserve: restoring %s: %v\n", *fs.restore, err)
			return nil, exitInvalidInput
		}
		fmt.Printf("restored:    %s at epoch %d (digest %016x)\n", *fs.restore, r.Epoch(), r.Digest())
		return r, exitOK
	}
	opts, code := runtimeOptions(fs)
	if code != exitOK {
		return nil, code
	}
	r, err := schedrt.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return nil, exitInvalidInput
	}
	return r, exitOK
}

// tapeHorizon computes the play horizon: -epochs, or the tape's last
// event plus settle time.
func tapeHorizon(fs flags, tp *schedrt.Tape) int64 {
	if *fs.epochs > 0 {
		return *fs.epochs
	}
	horizon := int64(32)
	if n := len(tp.Events); n > 0 {
		horizon += tp.Events[n-1].Epoch
	}
	return horizon
}

func openJSONL(fs flags) (*os.File, int) {
	if *fs.jsonl == "" {
		return nil, exitOK
	}
	f, err := os.Create(*fs.jsonl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return nil, exitInternal
	}
	return f, exitOK
}

func epochLogger(fs flags, jsonl *os.File) func(schedrt.EpochReport) {
	return func(rep schedrt.EpochReport) {
		if jsonl != nil {
			if err := json.NewEncoder(jsonl).Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, "impserve: epoch log:", err)
			}
		}
		if !*fs.quiet && rep.ActionName != "" {
			fmt.Printf("epoch %d: governor %s (shed %v, window mean %.2f)\n",
				rep.Epoch, rep.ActionName, rep.Shed, rep.WindowMean)
		}
	}
}

func decisionLogger(fs flags, epoch func() int64) func(schedrt.Event, schedrt.Decision) {
	return func(ev schedrt.Event, d schedrt.Decision) {
		if !*fs.quiet {
			fmt.Printf("epoch %d: %s %s: %s%s\n", epoch(), d.Op, d.Task, d.Verdict, reason(d))
		}
	}
}

func staleTolerant(fs flags, epoch func() int64) func(schedrt.Event, error) error {
	return func(ev schedrt.Event, err error) error {
		if schedrt.IsStaleRequest(err) {
			if !*fs.quiet {
				fmt.Printf("epoch %d: stale request ignored: %v\n", epoch(), err)
			}
			return nil
		}
		return err
	}
}

func printSummary(r *schedrt.Runtime, horizon int64) {
	m := r.Metrics()
	fmt.Printf("epochs:      %d (of horizon %d)\n", r.Epoch(), horizon)
	fmt.Printf("jobs:        %d, misses %d (%d in degraded windows)\n",
		m.Jobs, m.Misses, m.MissesDegraded)
	fmt.Printf("admission:   %d admitted (%d degraded), %d rejected, %d removed\n",
		m.Admits, m.AdmitsDegraded, m.Rejects, m.Removes)
	fmt.Printf("governor:    %d sheds, %d restores, %d overload windows\n",
		m.Sheds, m.Restores, m.Overloads)
	fmt.Printf("digest:      %016x\n", r.Digest())
}

// generate writes a churn tape to -tape (or stdout) and exits.
func generate(fs flags) int {
	tp := experiments.GenerateChurnTape(*fs.seed, *fs.gen)
	if *fs.tape == "" {
		if err := schedrt.EncodeTape(os.Stdout, tp); err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
		return exitOK
	}
	if code := writeTape(*fs.tape, tp); code != exitOK {
		return code
	}
	fmt.Printf("tape:        %s (%d events, seed %d)\n", *fs.tape, len(tp.Events), *fs.seed)
	return exitOK
}

func writeTape(path string, tp *schedrt.Tape) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
	defer f.Close()
	if err := schedrt.EncodeTape(f, tp); err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
	return exitOK
}

func readTape(path string, strict bool) (*schedrt.Tape, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strict {
		return schedrt.DecodeTapeStrict(f)
	}
	return schedrt.DecodeTape(f)
}

// writeCheckpoint snapshots atomically: a crash mid-write must never
// destroy the previous good snapshot.
func writeCheckpoint(path string, r *schedrt.Runtime) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := schedrt.EncodeCheckpoint(tmp, r.Checkpoint()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func reason(d schedrt.Decision) string {
	if d.Reason == "" {
		return ""
	}
	return " (" + d.Reason + ")"
}
