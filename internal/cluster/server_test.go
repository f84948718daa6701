package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nprt/internal/cluster"
	"nprt/internal/journal"
	schedrt "nprt/internal/runtime"
	"nprt/internal/sim"
	"nprt/internal/task"
)

func addEventJSON(t *testing.T, name string, w task.Time) []byte {
	t.Helper()
	ev := schedrt.Event{Op: "add", Task: &schedrt.TaskSpec{Task: task.Task{
		Name: name, Period: 40, WCETAccurate: w, WCETImprecise: w / 4,
		ExecAccurate:  task.Dist{Mean: float64(w) / 2, Sigma: 1, Min: 1, Max: float64(w)},
		ExecImprecise: task.Dist{Mean: float64(w) / 8, Sigma: 0.2, Min: 1, Max: float64(w) / 4},
		Error:         task.Dist{Mean: 2, Sigma: 0.5},
	}}}
	buf, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func post(t *testing.T, url string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b)
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(b)
}

type entry struct {
	Shard    int              `json:"shard"`
	Decision schedrt.Decision `json:"decision"`
	Error    string           `json:"error,omitempty"`
}

// startServer opens a fresh cluster, attaches a server, and returns both
// with the test HTTP endpoint.
func startServer(t *testing.T, dir string, shards int, sopt cluster.ServeOptions) (*cluster.Server, *cluster.Cluster, *httptest.Server) {
	t.Helper()
	c, err := cluster.Open(dir, cluster.Options{
		Shards:      shards,
		Placement:   "round-robin", // deterministic spread for the assertions below
		Store:       schedrt.StoreOptions{NoSync: true},
		RelaxedMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewServer(sopt)
	s.Attach(c)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
		c.Close()
	})
	return s, c, ts
}

// TestServerRoutesAcrossShards: /admit spreads round-robin placements over
// every shard, duplicates and unknown removes come back 409 without
// touching a shard, and /state aggregates per-shard rows.
func TestServerRoutesAcrossShards(t *testing.T) {
	_, c, ts := startServer(t, t.TempDir(), 3, cluster.ServeOptions{})

	hit := make(map[int]int)
	for i := 0; i < 6; i++ {
		resp, body := post(t, ts.URL+"/admit", addEventJSON(t, fmt.Sprintf("t%d", i), 8))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admit t%d: %d: %s", i, resp.StatusCode, body)
		}
		var e entry
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatal(err)
		}
		if e.Decision.Verdict == schedrt.Rejected {
			t.Fatalf("admit t%d rejected: %s", i, body)
		}
		hit[e.Shard]++
	}
	if len(hit) != 3 || hit[0] != 2 || hit[1] != 2 || hit[2] != 2 {
		t.Errorf("round-robin spread %v, want 2 per shard", hit)
	}

	// Duplicate add: synthesized at the router, 409, no shard named.
	if resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "t0", 8)); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate admit: %d, want 409: %s", resp.StatusCode, body)
	}
	// Unknown remove: same.
	rm, _ := json.Marshal(schedrt.Event{Op: "remove", Name: "nobody"})
	if resp, body := post(t, ts.URL+"/admit", rm); resp.StatusCode != http.StatusConflict {
		t.Errorf("unknown remove: %d, want 409: %s", resp.StatusCode, body)
	}
	// Real remove routes to the owner.
	rm, _ = json.Marshal(schedrt.Event{Op: "remove", Name: "t3"})
	resp, body := post(t, ts.URL+"/admit", rm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove t3: %d: %s", resp.StatusCode, body)
	}
	var e entry
	json.Unmarshal([]byte(body), &e)
	if e.Shard != 0 {
		t.Errorf("remove t3 served by shard %d, want its round-robin owner 0", e.Shard)
	}

	// Overload broadcasts: shard -1, every store sees it.
	ov, _ := json.Marshal(schedrt.Event{Op: "overload", Overload: &schedrt.OverloadSpec{
		Rates: sim.FaultRates{OverrunProb: 0.2, OverrunFactor: 2}, Epochs: 3,
	}})
	resp, body = post(t, ts.URL+"/admit", ov)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overload: %d: %s", resp.StatusCode, body)
	}
	json.Unmarshal([]byte(body), &e)
	if e.Shard != -1 {
		t.Errorf("overload shard %d, want -1 (broadcast)", e.Shard)
	}
	for _, sh := range c.Shards() {
		if got := sh.Store.Runtime().Metrics().Overloads; got != 1 {
			t.Errorf("shard %d saw %d overloads, want 1", sh.ID, got)
		}
	}

	resp, body = get(t, ts.URL+"/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state: %d", resp.StatusCode)
	}
	var st cluster.ClusterState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Shards != 3 || st.Placement != "round-robin" {
		t.Errorf("state header: %+v", st)
	}
	// 6 adds + 1 remove + 1 overload applied; duplicate and ghost rejected.
	if st.Tasks != 5 || st.Admitted != 8 || st.Rejected < 2 {
		t.Errorf("state counters: tasks=%d admitted=%d rejected=%d", st.Tasks, st.Admitted, st.Rejected)
	}
	if len(st.PerShard) != 3 {
		t.Fatalf("state has %d shard rows, want 3", len(st.PerShard))
	}
	for _, row := range st.PerShard {
		if row.Digest == "" || row.QueueCap == 0 {
			t.Errorf("shard row %d incomplete: %+v", row.Shard, row)
		}
	}
}

// TestServerBatchAdmit: one /admit/batch call spanning adds for several
// shards, a duplicate, and an overload comes back fully resolved and
// positionally aligned.
func TestServerBatchAdmit(t *testing.T) {
	_, c, ts := startServer(t, t.TempDir(), 2, cluster.ServeOptions{})

	mk := func(name string) schedrt.Event {
		var ev schedrt.Event
		if err := json.Unmarshal(addEventJSON(t, name, 8), &ev); err != nil {
			t.Fatal(err)
		}
		return ev
	}
	batch := []schedrt.Event{
		mk("b0"), mk("b1"), mk("b2"),
		mk("b0"), // duplicate: synthesized 409-style entry
		{Op: "overload", Overload: &schedrt.OverloadSpec{
			Rates: sim.FaultRates{OverrunProb: 0.1, OverrunFactor: 2}, Epochs: 2,
		}},
		{Op: "remove", Name: "b1"},
	}
	body, _ := json.Marshal(batch)
	resp, out := post(t, ts.URL+"/admit/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, out)
	}
	var got struct {
		Decisions []entry `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Decisions) != len(batch) {
		t.Fatalf("%d decisions for %d events", len(got.Decisions), len(batch))
	}
	// The reply is compact: exactly json.Marshal of what it decodes to.
	if want, _ := json.Marshal(got); out != string(want)+"\n" {
		t.Errorf("batch reply is not compact json.Marshal output:\n got  %s\n want %s", out, want)
	}
	for i := 0; i < 3; i++ {
		if got.Decisions[i].Error != "" || got.Decisions[i].Decision.Verdict == schedrt.Rejected {
			t.Errorf("batch add %d failed: %+v", i, got.Decisions[i])
		}
	}
	if got.Decisions[3].Error == "" {
		t.Errorf("duplicate in batch accepted: %+v", got.Decisions[3])
	}
	if got.Decisions[4].Shard != -1 || got.Decisions[4].Error != "" {
		t.Errorf("overload entry: %+v", got.Decisions[4])
	}
	if got.Decisions[5].Error != "" {
		t.Errorf("remove b1 failed: %+v", got.Decisions[5])
	}
	owners := c.Owners()
	if len(owners) != 2 {
		t.Errorf("owners after batch: %v, want b0 and b2", owners)
	}

	// Oversized batches are refused before any routing.
	big := make([]schedrt.Event, 300)
	for i := range big {
		big[i] = mk(fmt.Sprintf("big%d", i))
	}
	body, _ = json.Marshal(big)
	if resp, out := post(t, ts.URL+"/admit/batch", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400: %s", resp.StatusCode, out)
	}
}

// TestServerDrainAndRestart: shutdown refuses new admissions, and a fresh
// cluster+server over the same directory recovers the partition map and
// serves reads of the same state.
func TestServerDrainAndRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.Open(dir, cluster.Options{
		Shards: 2, Placement: "round-robin",
		Store: schedrt.StoreOptions{NoSync: true}, RelaxedMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewServer(cluster.ServeOptions{})
	s.Attach(c)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		if resp, body := post(t, ts.URL+"/admit", addEventJSON(t, fmt.Sprintf("p%d", i), 8)); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit p%d: %d: %s", i, resp.StatusCode, body)
		}
	}
	owners := c.Owners()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := post(t, ts.URL+"/admit", addEventJSON(t, "late", 8)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admit after shutdown: %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", resp.StatusCode)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := cluster.Open(dir, cluster.Options{
		Shards: 2, Placement: "round-robin",
		Store: schedrt.StoreOptions{NoSync: true}, RelaxedMeta: true,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if !sameOwners(owners, c2.Owners()) {
		t.Fatalf("recovered owners %v, want %v", c2.Owners(), owners)
	}

	s2 := cluster.NewServer(cluster.ServeOptions{})
	s2.Attach(c2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Shutdown(context.Background())
	_, body := get(t, ts2.URL+"/state")
	var st cluster.ClusterState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 4 {
		t.Errorf("restarted /state tasks = %d, want 4", st.Tasks)
	}
}

// TestServerEpochsAndCheckpoints: timed epochs advance every shard and the
// checkpoint cadence snapshots the router meta state.
func TestServerEpochsAndCheckpoints(t *testing.T) {
	s, c, ts := startServer(t, t.TempDir(), 2, cluster.ServeOptions{
		EpochInterval: time.Millisecond, CheckpointEvery: 2,
	})
	if resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "e0", 8)); resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Epoch < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("engines stuck at epoch %d", s.Snapshot().Epoch)
		}
		time.Sleep(time.Millisecond)
	}
	st := s.Snapshot()
	if len(st.PerShard) != 2 {
		t.Fatalf("snapshot rows: %d", len(st.PerShard))
	}
	for _, row := range st.PerShard {
		if row.Epoch < 4 {
			t.Errorf("shard %d stuck at epoch %d", row.Shard, row.Epoch)
		}
	}
	_ = c
}

// TestServerNameReuseConsistency hammers /admit from concurrent clients
// with a small, heavily reused name pool — the workload the tape churn
// suites never produce. Per-shard engines complete out of sequence order
// across shards, so a remove and a re-add of the same name can resolve on
// different shards in either order; the partition map and the feasibility
// mirrors must still end exactly where the shard stores ended. Before
// owner mutations were sequenced, this stranded tasks outside the map and
// leaked mirror entries until admission collapsed.
func TestServerNameReuseConsistency(t *testing.T) {
	s, c, ts := startServer(t, t.TempDir(), 4, cluster.ServeOptions{QueueDepth: 64})

	const workers, iters, names = 8, 150, 12
	addSpec := func(name string, w task.Time) schedrt.Event {
		return schedrt.Event{Op: "add", Task: &schedrt.TaskSpec{Task: task.Task{
			Name: name, Period: 40, WCETAccurate: w, WCETImprecise: w / 4,
			ExecAccurate:  task.Dist{Mean: float64(w) / 2, Sigma: 1, Min: 1, Max: float64(w)},
			ExecImprecise: task.Dist{Mean: float64(w) / 8, Sigma: 0.2, Min: 1, Max: float64(w) / 4},
			Error:         task.Dist{Mean: 2, Sigma: 0.5},
		}}}
	}
	var wg sync.WaitGroup
	client := ts.Client()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Remove-then-re-add pairs in one batch: the re-add routes
				// round-robin to a different shard than the remove, so the two
				// engines resolve the same name concurrently — the widest
				// complete-interleaving window the wire surface can produce.
				var evs []schedrt.Event
				for k := 0; k < 4; k++ {
					name := fmt.Sprintf("r%d", (w+i+k*3)%names)
					evs = append(evs, schedrt.Event{Op: "remove", Name: name},
						addSpec(name, task.Time(8+(i+k)%5)))
				}
				body, _ := json.Marshal(evs)
				resp, err := client.Post(ts.URL+"/admit/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					continue // shutdown races are not the point here
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close() // 409 dup/stale and 503 shed are part of the workload
			}
		}(w)
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Shard stores are the truth; the router's map and mirrors are caches.
	owners := c.Owners()
	live := make(map[string]int)
	for i, sh := range c.Shards() {
		specs := sh.Store.Runtime().Tasks()
		for _, sp := range specs {
			if prev, dup := live[sp.Task.Name]; dup {
				t.Errorf("task %s resident on shards %d and %d", sp.Task.Name, prev, i)
			}
			live[sp.Task.Name] = i
		}
		if got, want := sh.Resident(), len(specs); got != want {
			t.Errorf("shard %d mirror holds %d tasks, store holds %d", i, got, want)
		}
	}
	if len(owners) != len(live) {
		t.Errorf("partition map has %d entries, shards hold %d tasks", len(owners), len(live))
	}
	for name, si := range live {
		if oi, ok := owners[name]; !ok {
			t.Errorf("task %s on shard %d missing from partition map", name, si)
		} else if oi != si {
			t.Errorf("partition map says %s is on shard %d, store says %d", name, oi, si)
		}
	}
}

// TestServerReplicationSurface: the serve layer over a replicated cluster.
// /state carries per-shard replica rows, a primary wedge promotes without
// a single 503 (zero-shed), /readyz reports the failover, and once every
// drive of a partition is dead the 503s carry a Retry-After derived from
// that shard's live containment backoff instead of the fixed default.
func TestServerReplicationSurface(t *testing.T) {
	prim, fol := &flakyInjector{}, &flakyInjector{}
	c, err := cluster.Open(t.TempDir(), cluster.Options{
		Shards: 2, Replicas: 1, Placement: "round-robin",
		Store:       schedrt.StoreOptions{NoSync: true},
		RelaxedMeta: true,
		Inject: func(si int) journal.Injector {
			if si == 0 {
				return prim
			}
			return nil
		},
		InjectReplica: func(si, slot int) journal.Injector {
			if si == 0 && slot == 1 {
				return fol
			}
			return nil
		},
		Retry: cluster.RetryOptions{MaxAttempts: 2, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := cluster.NewServer(cluster.ServeOptions{})
	s.Attach(c)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
		c.Close()
	})

	for i := 0; i < 4; i++ {
		if resp, body := post(t, ts.URL+"/admit", addEventJSON(t, fmt.Sprintf("t%d", i), 8)); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit t%d: %d: %s", i, resp.StatusCode, body)
		}
	}
	var st cluster.ClusterState
	if _, body := get(t, ts.URL+"/state"); json.Unmarshal([]byte(body), &st) != nil || len(st.PerShard) != 2 {
		t.Fatalf("state: %s", body)
	}
	for _, row := range st.PerShard {
		if row.PrimarySlot != 0 || len(row.Replicas) != 1 ||
			row.Replicas[0].Slot != 1 || !row.Replicas[0].InSync {
			t.Fatalf("shard %d replica row before failover: %+v", row.Shard, row)
		}
	}

	// Kill the shard-0 primary drive: admissions keep succeeding through
	// the promoted follower — the zero-shed path.
	prim.wedged = true
	for i := 0; i < 4; i++ {
		if resp, body := post(t, ts.URL+"/admit", addEventJSON(t, fmt.Sprintf("w%d", i), 8)); resp.StatusCode != http.StatusOK {
			t.Fatalf("admit w%d across failover: %d: %s", i, resp.StatusCode, body)
		}
	}
	if slot := c.PrimarySlot(0); slot != 1 {
		t.Fatalf("shard 0 primary slot after wedge: %d, want 1", slot)
	}
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after failover: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains([]byte(body), []byte("promotions=1")) {
		t.Fatalf("readyz does not report the failover: %s", body)
	}
	if _, body := get(t, ts.URL+"/state"); json.Unmarshal([]byte(body), &st) != nil ||
		st.PerShard[0].PrimarySlot != 1 {
		t.Fatalf("state after failover: %s", body)
	}

	// Now kill the promoted drive too: with no in-sync follower left the
	// shard fails for real, and the 503 carries the shard's own backoff.
	fol.wedged = true
	saw503 := false
	for i := 0; i < 6 && !saw503; i++ {
		resp, body := post(t, ts.URL+"/admit", addEventJSON(t, fmt.Sprintf("x%d", i), 8))
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			saw503 = true
			if resp.Header.Get("Retry-After") == "" || resp.Header.Get("Retry-After-Ms") == "" {
				t.Fatalf("shed without backoff hint: %v: %s", resp.Header, body)
			}
			if !bytes.Contains([]byte(body), []byte("retry_after_ms")) {
				t.Fatalf("shed body lacks retry_after_ms: %s", body)
			}
		default:
			t.Fatalf("admit x%d with both drives dead: %d: %s", i, resp.StatusCode, body)
		}
	}
	if !saw503 {
		t.Fatal("shard with every drive dead never shed")
	}
	// Route-time sheds (remove of a task owned by the fenced shard) carry
	// the same shard-derived hint.
	name := ""
	for n, si := range c.Owners() {
		if si == 0 {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("no task owned by shard 0")
	}
	rm, _ := json.Marshal(schedrt.Event{Op: "remove", Name: name})
	resp, body = post(t, ts.URL+"/admit", rm)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After-Ms") == "" {
		t.Fatalf("route-time shed: %d %v: %s", resp.StatusCode, resp.Header, body)
	}
}
