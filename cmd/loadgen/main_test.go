package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestRatesExcludeWarmup: the per-second rates count only requests
// scheduled after -warmup, while the totals keep the warmup requests. An
// open loop at a fixed rate must report that rate, not the whole run's
// requests divided by the measured window (which overstated it in
// proportion to warmup/duration).
func TestRatesExcludeWarmup(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/admit" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"decision":{"op":"add","verdict":1}}` + "\n"))
	}))
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "report.json")
	const rate = 200.0
	args := os.Args
	defer func() { os.Args = args }()
	os.Args = []string{"loadgen", "-url", ts.URL, "-mode", "open", "-rate", "200", "-conns", "4",
		"-warmup", "500ms", "-duration", "500ms", "-retries", "0", "-out", out}
	if code := run(); code != exitOK {
		t.Fatalf("loadgen exit %d", code)
	}
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	// Warmup plus window offer ~200 requests; the window ~100.
	if rep.Requests < 150 || rep.Admits != rep.Requests {
		t.Errorf("totals: %d requests, %d admits; want ~200 each, warmup included", rep.Requests, rep.Admits)
	}
	for name, got := range map[string]float64{
		"requests_per_sec": rep.RequestsPerSec,
		"events_per_sec":   rep.EventsPerSec,
		"admits_per_sec":   rep.AdmitsPerSec,
	} {
		if got < 0.6*rate || got > 1.3*rate {
			t.Errorf("%s = %.0f at an offered %.0f/s (warmup counted in the rate?)", name, got, rate)
		}
	}
}
