package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"time"

	"nprt/internal/cluster"
	"nprt/internal/feasibility"
	"nprt/internal/ilp"
	"nprt/internal/journal"
	"nprt/internal/offline"
	schedrt "nprt/internal/runtime"
	"nprt/internal/serve"
	"nprt/internal/sim"
	"nprt/internal/task"
)

// replayInput is one workload's request sequence, fixed before any timed
// layer runs, plus the task sets the offline layers plan. Every request is
// one /admit/batch body; every layer runs one shard.
type replayInput struct {
	reqs       [][]schedrt.Event
	planSets   []*task.Set
	epochEvery int
	simSeed    uint64

	// Per event, in request order: its request and the verdict every layer
	// must reproduce.
	reqOf   []int
	verdict []schedrt.Verdict
}

func (in *replayInput) events() int { return len(in.verdict) }

// answer applies one request to the generating store and records it and
// its verdicts in the sequence.
func (in *replayInput) answer(st *schedrt.Store, evs []schedrt.Event) ([]schedrt.Decision, error) {
	decs, errs, err := st.ApplyBatch(evs)
	if err != nil {
		return nil, err
	}
	for i := range evs {
		if errs[i] != nil {
			return nil, fmt.Errorf("generating the replay: %v", errs[i])
		}
		in.reqOf = append(in.reqOf, len(in.reqs))
		in.verdict = append(in.verdict, decs[i].Verdict)
	}
	in.reqs = append(in.reqs, evs)
	return decs, nil
}

// generatingStore is the store that answers a sequence while it is drawn:
// fsync off, since nothing of it is timed.
func generatingStore(dir string) (*schedrt.Store, error) {
	return schedrt.OpenStore(dir, schedrt.StoreOptions{NoSync: true})
}

// generateHTTPInput draws the workload's request sequence serially with
// the same client models the e2e generator uses, so removes name only
// tasks seen admitted. The timed layers then replay exactly this sequence.
func generateHTTPInput(w workload, seed uint64, dir string) (*replayInput, error) {
	st, err := generatingStore(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	in := &replayInput{epochEvery: w.epochEvery, simSeed: seed}
	models := make([]*model, w.conns)
	for i := range models {
		models[i] = newModel(seed, i)
	}
	for k := 0; k < w.replayRequests; k++ {
		m := models[k%len(models)]
		evs := m.closedBatch(w.batch, w.remove)
		decs, err := in.answer(st, evs)
		if err != nil {
			return nil, err
		}
		for i := range evs {
			if err := m.observe(evs[i], decs[i], ""); err != nil {
				return nil, fmt.Errorf("generating the replay: %w", err)
			}
		}
	}
	// The offline layers plan the first resident tasks: the set a
	// re-planning runtime would hand the §IV planner.
	var tasks []task.Task
	for _, ts := range st.Runtime().Tasks() {
		if len(tasks) == 12 {
			break
		}
		tasks = append(tasks, ts.Task)
	}
	set, err := task.New(tasks)
	if err != nil {
		return nil, err
	}
	in.planSets = []*task.Set{set}
	return in, nil
}

// layerStats collects one replay pass's timings (all zero with spans off).
type layerStats struct {
	serveHandler, clusterHandler, clusterApply, storeApply time.Duration
	probeFirstFit                                          time.Duration
	allocs                                                 uint64
	replyBytes                                             int
	recordsPerSync                                         float64

	addUs, addSelfUs, removeUs, epochMs []float64
	newUs, profilesUs, probeUs          []float64
	adds, admits                        int

	commit          time.Duration
	records         int
	fsyncUs         []float64
	walBytes        int64
	simJobs         int64
	simTime         time.Duration
	optimize, post  time.Duration
	flipped         time.Duration
	ilpSolve        time.Duration
	ilpNodes        int
	wall            time.Duration
	digest          uint64
	mismatches      []string
	mismatchesCount int

	// Span ids of the enclosing calls, so each span names its parent.
	handlerIDs, applyIDs, storeIDs []uint64 // per request
	runtimeIDs                     []uint64 // per event
}

func (ls *layerStats) mismatch(format string, args ...any) {
	ls.mismatchesCount++
	if len(ls.mismatches) < 5 {
		ls.mismatches = append(ls.mismatches, fmt.Sprintf(format, args...))
	}
}

// checkVerdict compares one layer's answer for event e with the sequence.
func (ls *layerStats) checkVerdict(in *replayInput, layer string, e int, d schedrt.Decision, err error) {
	if err != nil {
		ls.mismatch("%s: event %d: %v", layer, e, err)
		return
	}
	if d.Verdict != in.verdict[e] {
		ls.mismatch("%s: event %d: verdict %v, want %v", layer, e, d.Verdict, in.verdict[e])
	}
}

// replay runs every layer over in, each on a fresh state dir under dir.
func replay(in *replayInput, dir string, tr *tracer) (*layerStats, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	ls := &layerStats{
		handlerIDs: make([]uint64, len(in.reqs)), applyIDs: make([]uint64, len(in.reqs)),
		storeIDs: make([]uint64, len(in.reqs)), runtimeIDs: make([]uint64, in.events()),
	}
	start := time.Now()
	steps := []func(*replayInput, string, *tracer, *layerStats) error{
		replayServe, replayClusterServer, replayClusterApply, replayStores,
		replayRuntime, replayScreens, replayPlans,
	}
	for i, step := range steps {
		if err := step(in, filepath.Join(dir, strconv.Itoa(i)), tr, ls); err != nil {
			return nil, err
		}
	}
	ls.wall = time.Since(start)
	h := fnv.New64a()
	for _, v := range in.verdict {
		h.Write([]byte{byte(v)})
	}
	var buf [8]byte
	for _, x := range []uint64{ls.digest, uint64(ls.ilpNodes), uint64(ls.simJobs), uint64(ls.records)} {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	ls.digest = h.Sum64()
	return ls, os.RemoveAll(dir)
}

// bodies encodes every request once, before any door is timed.
func bodies(in *replayInput) ([][]byte, error) {
	out := make([][]byte, len(in.reqs))
	for k, evs := range in.reqs {
		var err error
		if out[k], err = json.Marshal(evs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveHTTP runs one encoded request through a door's handler in process.
func serveHTTP(h http.Handler, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/admit/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// checkReply compares an in-process door's reply to request k with the
// sequence's verdicts; e is the request's first event.
func (ls *layerStats) checkReply(in *replayInput, layer string, k, e int, rec *httptest.ResponseRecorder) {
	n := len(in.reqs[k])
	var ents []entry
	err := fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	if rec.Code == http.StatusOK {
		ents, err = decodeReply(rec.Body.Bytes(), n)
	}
	if err != nil {
		ls.mismatch("%s: request %d: %v", layer, k, err)
		return
	}
	for i := range ents {
		var entErr error
		if ents[i].Error != "" {
			entErr = errors.New(ents[i].Error)
		}
		ls.checkVerdict(in, layer, e+i, ents[i].Decision, entErr)
	}
}

// replayServe drives the single-node door (serve.New + Handler) and counts
// the allocations (the whole process while the door runs: the serving path
// plus the in-process request and recorder) and reply bytes.
func replayServe(in *replayInput, dir string, tr *tracer, ls *layerStats) error {
	reqBodies, err := bodies(in)
	if err != nil {
		return err
	}
	st, err := schedrt.OpenStore(dir, schedrt.StoreOptions{})
	if err != nil {
		return err
	}
	srv := serve.New(serve.Options{})
	srv.Attach(st)
	h := srv.Handler()
	recs := make([]*httptest.ResponseRecorder, len(in.reqs))
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for k := range in.reqs {
		_, d := tr.do("serve.handler", 0, int64(k), func() { recs[k] = serveHTTP(h, reqBodies[k]) })
		ls.serveHandler += d
	}
	goruntime.ReadMemStats(&after)
	ls.allocs = after.Mallocs - before.Mallocs
	e := 0
	for k, evs := range in.reqs {
		ls.replyBytes += recs[k].Body.Len()
		ls.checkReply(in, "serve.handler", k, e, recs[k])
		e += len(evs)
	}
	if c := srv.Snapshot().Commit; c != nil {
		ls.recordsPerSync = ratio(float64(c.Records), float64(c.Syncs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return st.Close()
}

// replayClusterServer drives the N-shard door (cluster.NewServer +
// Handler) over a 1-shard cluster.
func replayClusterServer(in *replayInput, dir string, tr *tracer, ls *layerStats) error {
	c, err := cluster.Open(dir, cluster.Options{Shards: 1, RelaxedMeta: true})
	if err != nil {
		return err
	}
	reqBodies, err := bodies(in)
	if err != nil {
		return err
	}
	srv := cluster.NewServer(cluster.ServeOptions{})
	srv.Attach(c)
	h := srv.Handler()
	e := 0
	for k, evs := range in.reqs {
		var rec *httptest.ResponseRecorder
		id, d := tr.do("cluster.handler", 0, int64(k), func() { rec = serveHTTP(h, reqBodies[k]) })
		ls.handlerIDs[k] = id
		ls.clusterHandler += d
		ls.checkReply(in, "cluster.handler", k, e, rec)
		e += len(evs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return c.Close()
}

// replayClusterApply drives the router directly (Cluster.ApplyBatch).
func replayClusterApply(in *replayInput, dir string, tr *tracer, ls *layerStats) error {
	c, err := cluster.Open(dir, cluster.Options{Shards: 1, RelaxedMeta: true})
	if err != nil {
		return err
	}
	e := 0
	for k, evs := range in.reqs {
		var res []cluster.Result
		var errs []error
		var err error
		id, d := tr.do("cluster.apply", ls.handlerIDs[k], int64(k), func() { res, errs, err = c.ApplyBatch(evs) })
		if err != nil {
			return err
		}
		ls.clusterApply += d
		ls.applyIDs[k] = id
		for i := range evs {
			ls.checkVerdict(in, "cluster.apply", e+i, res[i].Decision, errs[i])
		}
		e += len(evs)
	}
	return c.Close()
}

// timedSink times the journal writer's fsyncs under the group committer.
type timedSink struct {
	w     *journal.Writer
	tr    *tracer
	req   int64
	par   uint64
	syncs []float64
}

func (t *timedSink) AppendBatch(recs []journal.Pending) (uint64, error) {
	return t.w.AppendBatch(recs)
}

func (t *timedSink) Sync() error {
	var err error
	_, d := t.tr.do("journal.fsync", t.par, t.req, func() { err = t.w.Sync() })
	t.syncs = append(t.syncs, us(d))
	return err
}

// replayStores drives a durable store (OpenStore + ApplyBatch) on the
// requests, then reads its WAL back and recommits it through a
// GroupCommitter in the same group sizes, timing Writer.Sync.
func replayStores(in *replayInput, dir string, tr *tracer, ls *layerStats) error {
	storeDir := filepath.Join(dir, "store")
	st, err := schedrt.OpenStore(storeDir, schedrt.StoreOptions{})
	if err != nil {
		return err
	}
	groups := make([]int, len(in.reqs))
	e := 0
	for k, evs := range in.reqs {
		var decs []schedrt.Decision
		var errs []error
		var err error
		id, d := tr.do("runtime.store_apply", ls.applyIDs[k], int64(k), func() { decs, errs, err = st.ApplyBatch(evs) })
		if err != nil {
			return err
		}
		ls.storeApply += d
		ls.storeIDs[k] = id
		groups[k] = len(evs)
		for i := range evs {
			ls.checkVerdict(in, "runtime.store_apply", e+i, decs[i], errs[i])
		}
		e += len(evs)
	}
	if err := st.Close(); err != nil {
		return err
	}
	return recommit(storeDir, filepath.Join(dir, "wal"), groups, ls.storeIDs, tr, ls)
}

// recommit replays one store's WAL records into a fresh journal, one
// CommitAll per original group.
func recommit(storeDir, walDir string, groups []int, parents []uint64, tr *tracer, ls *layerStats) error {
	src := filepath.Join(storeDir, "wal")
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if fi, err := de.Info(); err == nil && !fi.IsDir() {
			ls.walBytes += fi.Size()
		}
	}
	var recs []journal.Pending
	if _, err := journal.Replay(src, 0, func(r journal.Record) error {
		recs = append(recs, journal.Pending{Type: r.Type, Payload: append([]byte(nil), r.Payload...)})
		return nil
	}); err != nil {
		return err
	}
	total := 0
	for _, n := range groups {
		total += n
	}
	if total != len(recs) {
		ls.mismatch("journal: %s holds %d records, the store journaled %d", src, len(recs), total)
		return nil
	}
	w, err := journal.Open(walDir, journal.Options{})
	if err != nil {
		return err
	}
	sink := &timedSink{w: w, tr: tr}
	g := journal.NewGroupCommitter(sink, journal.GroupOptions{})
	off := 0
	for k, n := range groups {
		var cerr error
		// The fsync span is recorded inside CommitAll: its parent is the
		// commit span, which takes the next id.
		sink.req, sink.par = int64(k), tr.nextID()
		_, d := tr.do("journal.commit", parents[k], int64(k), func() { _, cerr = g.CommitAll(recs[off : off+n]) })
		if cerr != nil {
			return cerr
		}
		ls.commit += d
		off += n
	}
	ls.records += len(recs)
	ls.fsyncUs = append(ls.fsyncUs, sink.syncs...)
	if err := g.Close(); err != nil {
		return err
	}
	return w.Close()
}

// replayRuntime drives an in-memory runtime (runtime.New +
// Add/Remove/RunEpoch) on the events, with an epoch every in.epochEvery
// events.
func replayRuntime(in *replayInput, _ string, tr *tracer, ls *layerStats) error {
	rt, err := schedrt.New(schedrt.Options{Seed: in.simSeed})
	if err != nil {
		return err
	}
	e := 0
	for _, evs := range in.reqs {
		for _, ev := range evs {
			req := in.reqOf[e]
			par := ls.storeIDs[req]
			var d schedrt.Decision
			var err error
			if ev.Op == "add" {
				id, dur := tr.do("runtime.add", par, int64(req), func() { d, err = rt.Add(*ev.Task) })
				ls.addUs = append(ls.addUs, us(dur))
				ls.runtimeIDs[e] = id
			} else {
				id, dur := tr.do("runtime.remove", par, int64(req), func() { d, err = rt.Remove(ev.Name) })
				ls.removeUs = append(ls.removeUs, us(dur))
				ls.runtimeIDs[e] = id
			}
			ls.checkVerdict(in, "runtime", e, d, err)
			e++
			if e%in.epochEvery == 0 {
				var rep schedrt.EpochReport
				_, dur := tr.do("runtime.epoch", 0, int64(req), func() { rep, err = rt.RunEpoch() })
				if err != nil {
					return err
				}
				ls.epochMs = append(ls.epochMs, ms(dur))
				ls.simJobs += rep.Jobs
				ls.simTime += dur
			}
		}
	}
	ls.digest = rt.Digest()
	return nil
}

// replayScreens re-screens every add the way the runtime does —
// task.New over the resident set plus the candidate, then
// feasibility.Profiles — and probes the router's incremental mirror the
// way the router does: once to place the add, once on the owning shard.
// Each screen must agree with the verdict.
func replayScreens(in *replayInput, _ string, tr *tracer, ls *layerStats) error {
	var resident []task.Task
	mirror := feasibility.NewIncremental(nil)
	e := 0
	for _, evs := range in.reqs {
		for _, ev := range evs {
			admitted := in.verdict[e] != schedrt.Rejected
			if ev.Op != "add" {
				for i := range resident {
					if resident[i].Name == ev.Name {
						resident = append(resident[:i:i], resident[i+1:]...)
						break
					}
				}
				mirror.Remove(ev.Name)
				e++
				continue
			}
			t := ev.Task.Task
			req := in.reqOf[e]
			ls.adds++
			if admitted {
				ls.admits++
			}
			probeID, dur := tr.do("cluster.probe", ls.applyIDs[req], int64(req), func() { mirror.Probe(&t) })
			ls.probeFirstFit += dur
			var deepOK bool
			_, dur = tr.do("feasibility.probe", probeID, int64(req), func() { _, deepOK = mirror.Probe(&t) })
			ls.probeUs = append(ls.probeUs, us(dur))

			cand := append(append(make([]task.Task, 0, len(resident)+1), resident...), t)
			var set *task.Set
			var err error
			_, dNew := tr.do("task.new", ls.runtimeIDs[e], int64(req), func() { set, err = task.New(cand) })
			ls.newUs = append(ls.newUs, us(dNew))
			screened := false
			if err == nil {
				var deep feasibility.Report
				_, dProf := tr.do("feasibility.profiles", ls.runtimeIDs[e], int64(req), func() { _, deep = feasibility.Profiles(set) })
				ls.profilesUs = append(ls.profilesUs, us(dProf))
				screened = deep.Schedulable
				// Add's self time: the runtime's Add on this event minus
				// the two calls it makes on the same candidate set.
				ls.addSelfUs = append(ls.addSelfUs, ls.addUs[len(ls.newUs)-1]-us(dNew)-us(dProf))
			}
			if screened != admitted {
				ls.mismatch("feasibility.profiles: event %d screened %v, verdict %v", e, screened, in.verdict[e])
			}
			if deepOK != admitted {
				ls.mismatch("feasibility.probe: event %d probed %v, verdict %v", e, deepOK, in.verdict[e])
			}
			if admitted {
				resident = append(resident, t)
				mirror.Add(&t)
			}
			e++
		}
	}
	return nil
}

// ilpWorkers is the branch-and-bound LP worker count. One worker keeps
// a solve's time independent of the other CPU's availability; results are
// bit-identical at any count.
const ilpWorkers = 1

// replayPlans runs the §IV offline stack on each plan set: EDF order,
// exact mode optimisation, post-processing, Flipped EDF, the mode ILP at
// the fixed node budget, and H hyper-periods of ILP+Post+OA simulation.
func replayPlans(in *replayInput, _ string, tr *tracer, ls *layerStats) error {
	h := fnv.New64a()
	for i, set := range in.planSets {
		req := int64(i)
		var order []task.Job
		var err error
		tr.do("offline.edf_order", 0, req, func() { order, err = offline.EDFOrder(set, task.Deepest) })
		if err != nil {
			fmt.Fprintf(h, "%d:no-order;", i)
			continue
		}
		var modes []task.Mode
		_, d := tr.do("offline.optimize_modes", 0, req, func() { modes, _, err = offline.OptimizeModes(set, order) })
		ls.optimize += d
		var sc *offline.Schedule
		if err == nil {
			sc, err = offline.ScheduleWithModes(set, order, modes)
		} else {
			sc, err = offline.BuildBestEffort(set)
		}
		if err != nil {
			return err
		}
		var post *offline.Schedule
		_, d = tr.do("offline.post_process", 0, req, func() { post, _ = offline.PostProcess(sc, offline.PostProcessOptions{}) })
		ls.post += d
		_, d = tr.do("offline.flipped_edf", 0, req, func() { _, _ = offline.FlippedEDF(set) })
		ls.flipped += d
		var p *ilp.Problem
		tr.do("offline.build_mode_ilp", 0, req, func() { p = offline.BuildModeILP(set, order) })
		var sol *ilp.Solution
		_, d = tr.do("ilp.solve", 0, req, func() {
			sol, err = ilp.Solve(p, ilp.Options{MaxNodes: ilpNodeBudget, Workers: ilpWorkers})
		})
		if err != nil {
			return err
		}
		ls.ilpSolve += d
		ls.ilpNodes += sol.Nodes
		obj := sol.Objective
		if math.IsInf(obj, 0) {
			obj = 0
		}
		fmt.Fprintf(h, "%d:%s:%v:%d;", i, sol.Status, obj, sol.Nodes)
		var res *sim.Result
		_, d = tr.do("sim.run", 0, req, func() {
			res, err = sim.Run(set, offline.NewOA("ILP+Post+OA", post), sim.Config{
				Hyperperiods: offlineHyperperiods,
				Sampler:      sim.NewRandomSampler(set, in.simSeed),
			})
		})
		if err != nil {
			return err
		}
		ls.simJobs += res.Jobs
		ls.simTime += d
		fmt.Fprintf(h, "%d:%v;", res.Jobs, res.MeanError())
	}
	ls.digest ^= h.Sum64()
	return nil
}
