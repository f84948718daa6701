package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	runtimepkg "nprt/internal/runtime"
	"nprt/internal/task"
)

func openTestStore(t *testing.T) *runtimepkg.Store {
	t.Helper()
	st, err := runtimepkg.OpenStore(t.TempDir(), runtimepkg.StoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func addEventJSON(t *testing.T, name string) []byte {
	t.Helper()
	w := task.Time(6)
	ev := runtimepkg.Event{Op: "add", Task: &runtimepkg.TaskSpec{Task: task.Task{
		Name: name, Period: 40, WCETAccurate: w, WCETImprecise: 2,
		ExecAccurate:  task.Dist{Mean: 3, Sigma: 1, Min: 1, Max: 6},
		ExecImprecise: task.Dist{Mean: 1, Sigma: 0.2, Min: 1, Max: 2},
		Error:         task.Dist{Mean: 2, Sigma: 0.5},
	}}}
	buf, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
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

// TestReadyzGatesOnAttach is the readiness contract: alive from the first
// byte, ready only between Attach (replay done) and Shutdown.
func TestReadyzGatesOnAttach(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before attach: %d", resp.StatusCode)
	}
	resp, _ := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before attach: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 missing Retry-After")
	}
	// Admissions are shed, not queued, while unready.
	if resp, _ := post(t, ts.URL+"/admit", addEventJSON(t, "a")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admit before attach: %d, want 503", resp.StatusCode)
	}

	s.Attach(openTestStore(t))
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after attach: %d, want 200", resp.StatusCode)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown: %d, want 503", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/admit", addEventJSON(t, "a")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admit after shutdown: %d, want 503", resp.StatusCode)
	}
}

func TestAdmitDecisions(t *testing.T) {
	s := New(Options{})
	s.Attach(openTestStore(t))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "a"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit a: %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Decision runtimepkg.Decision `json:"decision"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Decision.Verdict == runtimepkg.Rejected {
		t.Fatalf("admit a rejected: %s", body)
	}

	if want, _ := json.Marshal(decisionEntry{Decision: out.Decision}); body != string(want)+"\n" {
		t.Errorf("admit reply is not compact json.Marshal output:\n got  %s\n want %s", body, want)
	}

	// Duplicate add: stale, 409 with the decision and error attached.
	resp, body = post(t, ts.URL+"/admit", addEventJSON(t, "a"))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate admit: %d, want 409: %s", resp.StatusCode, body)
	}
	var dup decisionEntry
	if err := json.Unmarshal([]byte(body), &dup); err != nil || dup.Error == "" {
		t.Fatalf("duplicate admit reply %s: %v", body, err)
	}
	if want, _ := json.Marshal(dup); body != string(want)+"\n" {
		t.Errorf("409 reply is not compact json.Marshal output:\n got  %s\n want %s", body, want)
	}

	// Structural garbage never reaches the journal.
	for _, bad := range []string{
		`{"op": "frobnicate"}`,
		`{"op": "add"}`,
		`{"op": "add", "typo": 1}`,
		`not json`,
	} {
		resp, _ := post(t, ts.URL+"/admit", []byte(bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("admit %q: %d, want 400", bad, resp.StatusCode)
		}
	}

	resp, body = get(t, ts.URL+"/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("state: %d", resp.StatusCode)
	}
	var st State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Tasks != 1 || st.Admitted != 1 || st.Rejected != 1 {
		t.Errorf("state after admits: %+v", st)
	}
	if st.Digest == "" || st.EventsApplied != 2 {
		t.Errorf("state cursor: digest %q, events %d", st.Digest, st.EventsApplied)
	}
}

// TestLoadShedAndDrain fills the bounded queue with the engine stalled,
// verifies the overflow admission is shed with 503 + Retry-After, then
// starts the engine and drains: every accepted admission must be applied
// (zero accepted-then-dropped), and the shed one must NOT be.
func TestLoadShedAndDrain(t *testing.T) {
	s := New(Options{QueueDepth: 2, RequestTimeout: 10 * time.Second, RetryAfter: 3 * time.Second})
	st := openTestStore(t)
	// White-box attach without the engine: ready, but nothing drains the
	// queue, emulating an engine stalled mid-epoch.
	s.store = st
	s.ready.Store(true)
	s.publish("")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   string
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for _, name := range []string{"q1", "q2"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/admit", addEventJSON(t, name))
			results <- result{resp.StatusCode, body}
		}(name)
	}
	// Wait until both admissions are parked in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := post(t, ts.URL+"/admit", addEventJSON(t, "overflow"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow admit: %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After %q, want %q", ra, "3")
	}
	if !strings.Contains(body, "queue full") {
		t.Errorf("shed body: %s", body)
	}

	// Unstall the engine, then immediately drain.
	go s.engine()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Errorf("queued admit got %d: %s", r.status, r.body)
		}
	}
	// Both accepted admissions applied; the shed one never touched the
	// store or the journal.
	if got := st.EventsApplied(); got != 2 {
		t.Errorf("store applied %d events, want exactly the 2 accepted", got)
	}
	if s.shed.Load() != 1 {
		t.Errorf("shed counter %d, want 1", s.shed.Load())
	}
}

// TestEngineRunsEpochsAndCheckpoints covers the timed-epoch path.
func TestEngineRunsEpochsAndCheckpoints(t *testing.T) {
	s := New(Options{EpochInterval: time.Millisecond, CheckpointEvery: 2})
	st := openTestStore(t)
	s.Attach(st)

	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Epoch < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at epoch %d", s.Snapshot().Epoch)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Epoch < 4 || snap.Digest == "" {
		t.Errorf("snapshot after epochs: %+v", snap)
	}
	if snap.Ready || !snap.Draining {
		t.Errorf("snapshot flags after shutdown: ready=%v draining=%v", snap.Ready, snap.Draining)
	}
}

func TestSupervisorRestartsThenSucceeds(t *testing.T) {
	var delays []time.Duration
	fails := 0
	sup := &Supervisor{
		MaxRestarts: 5,
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  400 * time.Millisecond,
		Sleep:       func(ctx context.Context, d time.Duration) { delays = append(delays, d) },
	}
	err := sup.Run(context.Background(), func(ctx context.Context) error {
		fails++
		switch fails {
		case 1:
			panic("incarnation 1 dies")
		case 2:
			return fmt.Errorf("incarnation 2 fails")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("supervisor gave up: %v", err)
	}
	if fails != 3 || len(delays) != 2 {
		t.Fatalf("%d runs, %d backoffs; want 3 and 2", fails, len(delays))
	}
	// Jittered exponential backoff: delay n lands in [base<<n / 2, base<<n * 1.5).
	for i, d := range delays {
		lo := (100 * time.Millisecond << i) / 2
		hi := 3 * lo
		if d < lo || d >= hi {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, d, lo, hi)
		}
	}
}

func TestSupervisorBudgetExhausted(t *testing.T) {
	runs := 0
	sup := &Supervisor{
		MaxRestarts: 2,
		Sleep:       func(ctx context.Context, d time.Duration) {},
	}
	err := sup.Run(context.Background(), func(ctx context.Context) error {
		runs++
		return fmt.Errorf("always broken")
	})
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("err %v, want restart-budget error", err)
	}
	if runs != 3 { // first run + 2 restarts
		t.Fatalf("%d runs, want 3", runs)
	}
}

func TestSupervisorResetAfterForgivesStableUptime(t *testing.T) {
	// A fake clock advanced by the supervised function itself: every third
	// incarnation "stays up" past the reset window before crashing, which
	// must zero the attempt counter — so the run survives far more total
	// failures than MaxRestarts before the budget finally bites.
	var clock time.Time
	runs := 0
	sup := &Supervisor{
		MaxRestarts: 2,
		ResetAfter:  time.Minute,
		Now:         func() time.Time { return clock },
		Sleep:       func(ctx context.Context, d time.Duration) {},
	}
	err := sup.Run(context.Background(), func(ctx context.Context) error {
		runs++
		if runs%3 == 0 {
			clock = clock.Add(2 * time.Minute) // stable incarnation, then crash
		} else {
			clock = clock.Add(time.Second) // quick crash
		}
		return fmt.Errorf("incarnation %d dies", runs)
	})
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("err %v, want restart-budget error", err)
	}
	// A strict budget of 2 allows 3 runs. Here run 3 is stable and resets
	// the counter, buying a fresh budget: runs 4 and 5 are attempts 1 and
	// 2 of the new window, and run 5 exhausts it — two more total failures
	// than the strict budget would have survived.
	if runs != 5 {
		t.Fatalf("budget bit after %d runs, want 5 (one stable-uptime reset)", runs)
	}

	// Same shape without ResetAfter: the budget is strict.
	clock = time.Time{}
	runs = 0
	strict := &Supervisor{
		MaxRestarts: 2,
		Now:         func() time.Time { return clock },
		Sleep:       func(ctx context.Context, d time.Duration) {},
	}
	err = strict.Run(context.Background(), func(ctx context.Context) error {
		runs++
		clock = clock.Add(2 * time.Minute)
		return fmt.Errorf("incarnation %d dies", runs)
	})
	if err == nil || runs != 3 {
		t.Fatalf("strict budget: %d runs, err %v; want 3 runs and budget error", runs, err)
	}
}

func TestSupervisorHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &Supervisor{
		MaxRestarts: 100,
		Sleep:       func(ctx context.Context, d time.Duration) { cancel() },
	}
	err := sup.Run(ctx, func(ctx context.Context) error {
		return fmt.Errorf("fails until cancelled")
	})
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
}
