package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	runtimepkg "nprt/internal/runtime"
	"nprt/internal/task"
)

func batchJSON(t *testing.T, names ...string) []byte {
	t.Helper()
	evs := make([]runtimepkg.Event, 0, len(names))
	for _, name := range names {
		evs = append(evs, runtimepkg.Event{Op: "add", Task: &runtimepkg.TaskSpec{Task: task.Task{
			Name: name, Period: 40, WCETAccurate: 6, WCETImprecise: 2,
			ExecAccurate:  task.Dist{Mean: 3, Sigma: 1, Min: 1, Max: 6},
			ExecImprecise: task.Dist{Mean: 1, Sigma: 0.2, Min: 1, Max: 2},
			Error:         task.Dist{Mean: 2, Sigma: 0.5},
		}}})
	}
	buf, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

type batchResponse struct {
	Decisions []struct {
		Decision runtimepkg.Decision `json:"decision"`
		Error    string              `json:"error,omitempty"`
	} `json:"decisions"`
}

// TestAdmitBatch: one POST carries several events; the response holds one
// decision per event, in order, with per-event errors for the stale ones —
// and the admitted counter counts each batch member exactly once.
func TestAdmitBatch(t *testing.T) {
	s := New(Options{})
	s.Attach(openTestStore(t))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// b1 duplicates b1: the dup is stale, everything else admits.
	resp, body := post(t, ts.URL+"/admit/batch", batchJSON(t, "b1", "b2", "b1", "b3"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch admit: %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != 4 {
		t.Fatalf("%d decisions for 4 events: %s", len(out.Decisions), body)
	}
	// The reply is compact: exactly json.Marshal of what it decodes to.
	if want, _ := json.Marshal(out); body != string(want)+"\n" {
		t.Errorf("batch reply is not compact json.Marshal output:\n got  %s\n want %s", body, want)
	}
	for i, want := range []struct {
		op    string
		stale bool
	}{{"add", false}, {"add", false}, {"add", true}, {"add", false}} {
		d := out.Decisions[i]
		if d.Decision.Op != want.op {
			t.Errorf("decision %d op %q, want %q — order not preserved", i, d.Decision.Op, want.op)
		}
		if want.stale && d.Error == "" {
			t.Errorf("decision %d: duplicate add has no error: %s", i, body)
		}
		if !want.stale && (d.Error != "" || d.Decision.Verdict == runtimepkg.Rejected) {
			t.Errorf("decision %d rejected: %+v %q", i, d.Decision, d.Error)
		}
	}

	snap := s.Snapshot()
	if snap.Admitted != 3 || snap.Rejected != 1 {
		t.Errorf("counters admitted=%d rejected=%d, want 3 and 1 — batch members double-counted?", snap.Admitted, snap.Rejected)
	}
	if snap.Tasks != 3 || snap.EventsApplied != 4 {
		t.Errorf("tasks=%d events=%d, want 3 and 4", snap.Tasks, snap.EventsApplied)
	}
	if snap.Commit == nil || snap.Commit.Records < 4 {
		t.Errorf("state missing commit stats: %+v", snap.Commit)
	}

	// An empty array or null is a no-op, not an error.
	for _, empty := range []string{`[]`, `null`} {
		resp, body = post(t, ts.URL+"/admit/batch", []byte(empty))
		if resp.StatusCode != http.StatusOK || body != "{\"decisions\":[]}\n" {
			t.Errorf("empty batch %s: %d %s", empty, resp.StatusCode, body)
		}
	}

	// Over the event cap: rejected outright, nothing journaled.
	before := s.Snapshot().EventsApplied
	var many []runtimepkg.Event
	for i := 0; i <= s.opt.MaxBatchEvents; i++ {
		many = append(many, runtimepkg.Event{Op: "remove", Name: "x"})
	}
	buf, _ := json.Marshal(many)
	resp, body = post(t, ts.URL+"/admit/batch", buf)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400: %s", resp.StatusCode, body)
	}
	if got := s.Snapshot().EventsApplied; got != before {
		t.Errorf("oversized batch advanced the journal: %d → %d", before, got)
	}

	// Malformed batch bodies.
	for _, bad := range []string{`{"op": "add"}`, `[{"typo": 1}]`, `not json`, `[] trailing`} {
		resp, _ := post(t, ts.URL+"/admit/batch", []byte(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %q: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestAdmitSaturatedTimeout: when the engine cannot reply within the
// request timeout, the client is shed with the standard 503 + Retry-After
// contract — not a generic error — and the shed counter ticks.
func TestAdmitSaturatedTimeout(t *testing.T) {
	s := New(Options{QueueDepth: 8, RequestTimeout: 50 * time.Millisecond, RetryAfter: 2 * time.Second})
	st := openTestStore(t)
	// Ready with no engine: accepted admissions park in the queue forever,
	// emulating an engine wedged mid-epoch.
	s.store = st
	s.ready.Store(true)
	s.publish("")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "slow"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated admit: %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After %q, want %q", ra, "2")
	}
	if !strings.Contains(body, "saturated") {
		t.Errorf("shed body should name the condition: %s", body)
	}
	if s.shed.Load() != 1 {
		t.Errorf("shed counter %d, want 1", s.shed.Load())
	}

	resp, body = post(t, ts.URL+"/admit/batch", batchJSON(t, "s1", "s2"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated batch admit: %d, want 503: %s", resp.StatusCode, body)
	}
	if s.shed.Load() != 2 {
		t.Errorf("shed counter %d, want 2", s.shed.Load())
	}

	// The accepted tickets are still queued: start the engine and drain —
	// they must be applied exactly once (durable despite the shed reply).
	go s.engine()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := st.EventsApplied(); got != 3 {
		t.Errorf("store applied %d events after drain, want 3", got)
	}
}
