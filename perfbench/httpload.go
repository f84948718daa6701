package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	schedrt "nprt/internal/runtime"
)

// entry is one decision in an /admit/batch reply.
type entry struct {
	Decision schedrt.Decision `json:"decision"`
	Error    string           `json:"error"`
}

type batchReply struct {
	Decisions []entry `json:"decisions"`
}

// tally is what the generator saw. Totals cover the whole run (warmup and
// drain included) and are what the server's counters must match; the
// window fields cover only the measured window.
type tally struct {
	requests int // attempted requests, whole run
	failed   int // transport errors, non-200s, per-entry errors, mismatches
	failures []string

	events   uint64 // events acknowledged with 200, whole run
	admitted uint64 // server "admitted" counter: admitted adds plus removes
	rejected uint64 // adds the screen rejected

	// Measured window.
	completed []completion // requests completed inside the window
	latMs     []float64    // requests sent inside it: latency
	latAt     []float64    // of those: seconds into the window they were sent
	lagMs     []float64    // of those: generator lateness
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.requests += o.requests
	t.failed += o.failed
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
	t.events += o.events
	t.admitted += o.admitted
	t.rejected += o.rejected
	t.completed = append(t.completed, o.completed...)
	t.latMs = append(t.latMs, o.latMs...)
	t.latAt = append(t.latAt, o.latAt...)
	t.lagMs = append(t.lagMs, o.lagMs...)
}

// completion is one request finished inside the measured window.
type completion struct {
	at             time.Time
	events, admits int
}

// rates are events and admitted adds per second: the median over the
// window's equal slices of each slice's completions over its length, so a
// burst of host noise moves one slice, not the result.
func (t *tally) rates(win window) (events, admits float64) {
	span := win.to.Sub(win.from).Seconds() / subWindows
	ev := make([]float64, subWindows)
	ad := make([]float64, subWindows)
	for _, c := range t.completed {
		k := int(c.at.Sub(win.from).Seconds() / span)
		if k >= 0 && k < subWindows {
			ev[k] += float64(c.events) / span
			ad[k] += float64(c.admits) / span
		}
	}
	return median(ev), median(ad)
}

// window is the measured interval [from, to).
type window struct{ from, to time.Time }

func (w window) has(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// decodeReply parses a 200 /admit/batch reply into one entry per event.
func decodeReply(data []byte, n int) ([]entry, error) {
	var br batchReply
	if err := json.Unmarshal(data, &br); err != nil {
		return nil, err
	}
	if len(br.Decisions) != n {
		return nil, fmt.Errorf("%d decisions for %d events", len(br.Decisions), n)
	}
	return br.Decisions, nil
}

// post sends one /admit/batch request and returns the decisions, or why
// the request failed as a whole.
func post(client *http.Client, url string, evs []schedrt.Event) ([]entry, error) {
	body, err := json.Marshal(evs)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/admit/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return decodeReply(data, len(evs))
}

// account folds one completed request into t. sent is when the request
// went out (latency runs from it), done when its reply arrived, lag how
// long the generator took between its previous reply and this send.
func account(t *tally, win window, m *model, evs []schedrt.Event, ents []entry, err error,
	sent, done time.Time, lag time.Duration) {
	t.requests++
	if win.has(sent) {
		t.latMs = append(t.latMs, ms(done.Sub(sent)))
		t.latAt = append(t.latAt, sent.Sub(win.from).Seconds())
		t.lagMs = append(t.lagMs, ms(lag))
	}
	if err != nil {
		t.fail("request: %v", err)
		return
	}
	admits := 0
	for i := range evs {
		if oerr := m.observe(evs[i], ents[i].Decision, ents[i].Error); oerr != nil {
			t.fail("%v", oerr)
			continue
		}
		t.events++
		if evs[i].Op == "add" && ents[i].Decision.Verdict == schedrt.Rejected {
			t.rejected++
		} else {
			t.admitted++
			if evs[i].Op == "add" {
				admits++
			}
		}
	}
	if win.has(done) {
		t.completed = append(t.completed, completion{at: done, events: len(evs), admits: admits})
	}
}

// closedLoop runs w.conns clients, each with one request outstanding and
// its own model, until the window ends. A client's lateness is the time
// between its previous reply and its next send: the generator's own cost.
func closedLoop(url string, w workload, seed uint64, win window) (*tally, []*model) {
	var wg sync.WaitGroup
	tallies := make([]*tally, w.conns)
	models := make([]*model, w.conns)
	for c := 0; c < w.conns; c++ {
		tallies[c] = &tally{}
		models[c] = newModel(seed, c)
		wg.Add(1)
		go func(t *tally, m *model) {
			defer wg.Done()
			client := newHTTPClient()
			prev := time.Now()
			for time.Now().Before(win.to) {
				evs := m.closedBatch(w.batch, w.remove)
				sendAt := time.Now()
				ents, err := post(client, url, evs)
				done := time.Now()
				account(t, win, m, evs, ents, err, sendAt, done, sendAt.Sub(prev))
				prev = done
			}
			client.CloseIdleConnections()
		}(tallies[c], models[c])
	}
	wg.Wait()
	total := &tally{}
	for _, t := range tallies {
		total.merge(t)
	}
	return total, models
}
