package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nprt/internal/journal"
	runtimepkg "nprt/internal/runtime"
)

// Server is the HTTP control plane over one durable store. The store is
// not safe for concurrent use, so a single engine goroutine owns it;
// handlers communicate with the engine through a *bounded* admission
// queue and read state from an atomically-published snapshot. The
// boundedness is the load-shedding contract: when the queue is full the
// server answers 503 with Retry-After instead of queueing unboundedly,
// and anything it *did* accept is guaranteed to be applied — the drain
// path flushes the queue before the engine exits, so there is no
// accepted-then-dropped window.
type Server struct {
	opt Options

	mu       sync.Mutex // guards draining + enqueue (the accept/drain race)
	draining bool
	queue    chan ticket

	ready      atomic.Bool
	state      atomic.Pointer[State]
	stop       chan struct{}
	engineDone chan struct{}
	fatal      chan error

	store *runtimepkg.Store

	admitted atomic.Uint64
	rejected atomic.Uint64 // admission ran, verdict or stale error against it
	shed     atomic.Uint64 // load-shed at the door: queue full or draining

	deadlineShed atomic.Uint64 // shed at enqueue: predicted wait > client deadline
	codelShed    atomic.Uint64 // shed at enqueue: CoDel standing-queue control

	ctlMu sync.Mutex
	ctl   *queueCtl // drain-rate estimate + adaptive admission (always present)
}

// Options parameterizes New.
type Options struct {
	// QueueDepth bounds the admission queue (default 16).
	QueueDepth int
	// RequestTimeout bounds how long an /admit handler waits for the
	// engine's reply (default 5s). The request may still be applied
	// after the handler gives up — it was accepted and is durable.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent with every 503 (default 1s).
	RetryAfter time.Duration
	// EpochInterval, when positive, has the engine run epochs on a
	// timer. Zero disables automatic epochs (tape-driven or test use).
	EpochInterval time.Duration
	// CheckpointEvery checkpoints after every Nth epoch (0 = never).
	CheckpointEvery int
	// MaxBatchEvents caps how many events one /admit/batch request may
	// carry (default 256).
	MaxBatchEvents int
	// CoDelTarget, when positive, arms CoDel-style adaptive queue control:
	// once queue sojourn stands above this target for CoDelInterval, new
	// arrivals are shed with sqrt-spaced pacing until it dips back under.
	// Zero leaves adaptive shedding off (deadline shedding and drain-rate
	// Retry-After hints still work — they only need the rate estimate).
	CoDelTarget time.Duration
	// CoDelInterval is the standing-queue grace period (default 100ms
	// when CoDelTarget is set).
	CoDelInterval time.Duration
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.MaxBatchEvents <= 0 {
		o.MaxBatchEvents = 256
	}
	return o
}

// State is the atomically-published view served by /state. It is a copy;
// readers never touch the store.
type State struct {
	Ready    bool     `json:"ready"`
	Draining bool     `json:"draining"`
	Epoch    int64    `json:"epoch"`
	Digest   string   `json:"digest"`
	Tasks    int      `json:"tasks"`
	Shed     []string `json:"shed,omitempty"`

	EventsApplied uint64 `json:"events_applied"`
	WALIndex      uint64 `json:"wal_index"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	Admitted  uint64 `json:"admitted"`
	Rejected  uint64 `json:"rejected"`
	LoadShed  uint64 `json:"load_shed"`
	LastError string `json:"last_error,omitempty"`

	// DeadlineShed / CoDelShed break LoadShed's enqueue-gate component out
	// by cause: predicted wait past the client deadline, or the CoDel
	// standing-queue controller.
	DeadlineShed uint64 `json:"deadline_shed,omitempty"`
	CoDelShed    uint64 `json:"codel_shed,omitempty"`
	// DrainPerSec is the measured engine drain rate (tickets/s, EWMA);
	// QueueWaitMs is the last observed head-of-queue sojourn.
	DrainPerSec float64 `json:"drain_per_sec,omitempty"`
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`

	Recovery *runtimepkg.RecoveryInfo `json:"recovery,omitempty"`
	Commit   *CommitState             `json:"commit,omitempty"`
}

// CommitState is the group-commit amortization view on /state: the
// journal's counters plus the derived records-per-sync ratio.
type CommitState struct {
	journal.GroupStats
	RecordsPerSync float64 `json:"records_per_sync"`
}

// ticket is one accepted admission request: one event from /admit, or up
// to MaxBatchEvents from /admit/batch. The events slice may alias a pooled
// decoder's scratch — the engine reads it (and stamps Epoch) only until it
// sends the reply, after which the handler recycles the decoder.
type ticket struct {
	evs   []runtimepkg.Event
	reply chan admitReply // buffered(1): the engine never blocks on it
	enq   time.Time       // when the ticket entered the queue (sojourn base)
}

// admitReply carries per-event results positionally (decs[i]/errs[i] for
// ticket.evs[i]); err is a fatal store failure covering the whole ticket.
type admitReply struct {
	decs []runtimepkg.Decision
	errs []error
	err  error
}

// New builds a server in the not-ready state: /healthz answers 200,
// /readyz and /admit answer 503 until Attach hands it a recovered store.
// That ordering is what lets impserve bind the listener before replay —
// probes see "alive but not ready" instead of connection refused.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:        opt,
		queue:      make(chan ticket, opt.QueueDepth),
		stop:       make(chan struct{}),
		engineDone: make(chan struct{}),
		fatal:      make(chan error, 1),
		ctl:        newQueueCtl(opt.CoDelTarget, opt.CoDelInterval),
	}
	s.state.Store(&State{QueueCap: opt.QueueDepth})
	return s
}

// Attach hands the server a recovered store, starts the engine goroutine,
// and flips readiness. Call exactly once, after OpenStore returns — i.e.
// after replay completed and the digest cross-checks passed.
func (s *Server) Attach(st *runtimepkg.Store) {
	s.store = st
	s.ready.Store(true)
	s.publish("")
	// The engine starts only after the final direct publish: from here on,
	// exactly one goroutine (it, then Shutdown after it exits) touches the
	// store.
	go s.engine()
}

// Fatal delivers at most one unrecoverable engine error (journal write
// failure, replay-grade divergence). The serving loop should treat it as
// its own failure and return, letting the supervisor restart via the
// recovery path.
func (s *Server) Fatal() <-chan error { return s.fatal }

// Snapshot returns the current published state.
func (s *Server) Snapshot() State { return *s.state.Load() }

// Shutdown drains the server: no new admissions are accepted (503), the
// engine applies everything already queued, then stops. The store is
// left open — the caller closes it after Shutdown returns. Safe to call
// before Attach (it just bars the door).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.ready.Store(false)
	if already || s.store == nil {
		return nil
	}
	close(s.stop)
	select {
	case <-s.engineDone:
		s.publish("")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// engine owns the store: admissions, timed epochs, checkpoints. Exactly
// one of these runs per Attach.
func (s *Server) engine() {
	defer close(s.engineDone)
	var tick <-chan time.Time
	if s.opt.EpochInterval > 0 {
		tk := time.NewTicker(s.opt.EpochInterval)
		defer tk.Stop()
		tick = tk.C
	}
	epochs := 0
	tickets := make([]ticket, 0, s.opt.QueueDepth)
	for {
		select {
		case t := <-s.queue:
			if !s.serveBatch(s.gather(tickets[:0], t)) {
				return
			}
		case <-tick:
			rep, err := s.store.RunEpoch()
			if err != nil {
				s.fail(fmt.Errorf("epoch: %w", err))
				return
			}
			epochs++
			if s.opt.CheckpointEvery > 0 && epochs%s.opt.CheckpointEvery == 0 {
				if _, err := s.store.Checkpoint(); err != nil {
					s.fail(fmt.Errorf("checkpoint: %w", err))
					return
				}
			}
			_ = rep
			s.publish("")
		case <-s.stop:
			// Drain: every ticket that made it into the queue was
			// accepted, so it gets applied before the engine exits. New
			// enqueues are impossible — Shutdown set draining under the
			// same mutex tryEnqueue holds. (Store.Close then flushes any
			// commit group these batches leave open; the engine's batches
			// are fully synced before reply, so this drain loses nothing.)
			for {
				select {
				case t := <-s.queue:
					if !s.serveBatch(s.gather(tickets[:0], t)) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// gather collects the commit group for one engine wake-up: the ticket
// that woke it, everything already queued, and — only when it has company
// — a brief yield-spin for the stragglers racing this drain (clients
// resubmitting right after the previous batch's replies). A lone ticket
// commits immediately: the serial path keeps serial latency.
func (s *Server) gather(tickets []ticket, t ticket) []ticket {
	tickets = append(tickets, t)
	drain := func() {
		for len(tickets) < cap(tickets) {
			select {
			case t2 := <-s.queue:
				tickets = append(tickets, t2)
			default:
				return
			}
		}
	}
	drain()
	if len(tickets) == 1 {
		goruntime.Gosched()
		drain()
	}
	if len(tickets) > 1 {
		for empty := 0; len(tickets) < cap(tickets) && empty < 4; {
			before := len(tickets)
			goruntime.Gosched()
			drain()
			if len(tickets) == before {
				empty++
			} else {
				empty = 0
			}
		}
	}
	return tickets
}

// serveBatch applies one gathered batch: every event of every ticket is
// journaled under one covering fsync (Store.ApplyBatch), then counted
// exactly once — a batch member and a lone /admit event hit the admitted/
// rejected counters identically. false means the store failed at the
// journal level and the engine must exit.
func (s *Server) serveBatch(tickets []ticket) bool {
	start := time.Now()
	// Live admissions carry the store's current epoch so the journaled
	// events replay at the same position.
	epoch := s.store.Epoch()
	var evs []runtimepkg.Event
	if len(tickets) == 1 {
		evs = tickets[0].evs
	} else {
		total := 0
		for i := range tickets {
			total += len(tickets[i].evs)
		}
		evs = make([]runtimepkg.Event, 0, total)
		for i := range tickets {
			evs = append(evs, tickets[i].evs...)
		}
	}
	for i := range evs {
		evs[i].Epoch = epoch
	}

	decs, errs, err := s.store.ApplyBatch(evs)
	now := time.Now()
	s.ctlMu.Lock()
	s.ctl.observe(len(tickets), now.Sub(start), start.Sub(tickets[0].enq), now)
	s.ctlMu.Unlock()
	if err != nil {
		// Journal-level failure: the store can no longer promise
		// durability. Take the engine down, then tell the handlers.
		s.fail(fmt.Errorf("admit: %w", err))
		for i := range tickets {
			tickets[i].reply <- admitReply{err: err}
		}
		return false
	}
	for i := range evs {
		if errs[i] != nil || decs[i].Verdict == runtimepkg.Rejected {
			s.rejected.Add(1)
		} else {
			s.admitted.Add(1)
		}
	}
	s.publish("") // before the replies: a handler's client may read /state next
	off := 0
	for i := range tickets {
		n := len(tickets[i].evs)
		tickets[i].reply <- admitReply{decs: decs[off : off+n], errs: errs[off : off+n]}
		off += n
	}
	return true
}

// fail publishes an unrecoverable engine error and stops readiness.
// The engine returns right after; queued handlers time out (their
// requests were accepted but durability is gone, which is exactly what
// the restart will sort out from the journal).
func (s *Server) fail(err error) {
	s.logf("engine: fatal: %v", err)
	s.ready.Store(false)
	s.publish(err.Error())
	select {
	case s.fatal <- err:
	default:
	}
}

// publish refreshes the /state snapshot from the engine's view.
func (s *Server) publish(lastErr string) {
	prev := s.state.Load()
	st := &State{
		Ready:      s.ready.Load(),
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Admitted:   s.admitted.Load(),
		Rejected:   s.rejected.Load(),
		LoadShed:   s.shed.Load(),
		LastError:  lastErr,

		DeadlineShed: s.deadlineShed.Load(),
		CoDelShed:    s.codelShed.Load(),
	}
	s.ctlMu.Lock()
	if s.ctl.svcEWMA > 0 {
		st.DrainPerSec = float64(time.Second) / float64(s.ctl.svcEWMA)
	}
	st.QueueWaitMs = float64(s.ctl.lastSojourn) / float64(time.Millisecond)
	s.ctlMu.Unlock()
	if lastErr == "" && prev != nil {
		st.LastError = prev.LastError
	}
	s.mu.Lock()
	st.Draining = s.draining
	s.mu.Unlock()
	if s.store != nil {
		st.Epoch = s.store.Epoch()
		st.Digest = fmt.Sprintf("%016x", s.store.Digest())
		st.Tasks = len(s.store.Runtime().Tasks())
		st.Shed = s.store.Runtime().ShedTasks()
		st.EventsApplied = s.store.EventsApplied()
		st.WALIndex = s.store.LastIndex()
		rec := s.store.Recovery()
		st.Recovery = &rec
		cs := s.store.CommitStats()
		st.Commit = &CommitState{GroupStats: cs, RecordsPerSync: cs.RecordsPerSync()}
	}
	s.state.Store(st)
}

// tryEnqueue admits a ticket into the bounded queue, or reports why not.
// The mutex closes the accept/drain race: once Shutdown has set draining,
// no ticket can slip into a queue nobody will drain.
func (s *Server) tryEnqueue(t ticket) (ok, full bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false, false
	}
	t.enq = time.Now()
	select {
	case s.queue <- t:
		return true, false
	default:
		return false, true
	}
}

// admitGate is the pre-enqueue adaptive check: deadline-aware shedding
// (predicted queue wait vs the client's X-Deadline-Ms) and CoDel pacing.
// reason "" admits; otherwise the request is shed before it consumes
// queue space, with retry as the drain-rate-derived backoff hint.
func (s *Server) admitGate(deadline time.Duration) (reason string, retry time.Duration) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	return s.ctl.admit(time.Now(), len(s.queue), deadline)
}

// shedAdaptive accounts and answers one admitGate shed.
func (s *Server) shedAdaptive(w http.ResponseWriter, reason string, retry time.Duration) {
	s.shed.Add(1)
	msg := "admission queue standing over target"
	if reason == "deadline" {
		s.deadlineShed.Add(1)
		msg = "predicted queue wait exceeds request deadline"
	} else {
		s.codelShed.Add(1)
	}
	s.unavailableHint(w, msg, retry)
}

// DeadlineMs parses the X-Deadline-Ms request header (0 when absent or
// malformed — a bad hint must not reject the request itself). Exported
// for the cluster serving layer, which propagates the same header.
func DeadlineMs(r *http.Request) time.Duration {
	v := r.Header.Get("X-Deadline-Ms")
	if v == "" {
		return 0
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// replyWait bounds a handler's wait for the engine: the request timeout,
// tightened to the client's own deadline when one was propagated.
func (s *Server) replyWait(deadline time.Duration) time.Duration {
	if deadline > 0 && deadline < s.opt.RequestTimeout {
		return deadline
	}
	return s.opt.RequestTimeout
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Handler returns the control-plane mux:
//
//	GET  /healthz  200 while the process is alive (liveness)
//	GET  /readyz   200 only between Attach (replay done) and Shutdown
//	GET  /state    the published State snapshot, JSON
//	POST /admit    an Event {"op": "add"|"remove"|"overload", ...};
//	               200 decision JSON · 400 malformed · 409 stale ·
//	               503 + Retry-After when shedding, saturated or not ready
//	POST /admit/batch  a JSON array of Events (≤ MaxBatchEvents); 200 with
//	               {"decisions": [...]} — one entry per event, in order,
//	               each carrying its decision or its own error
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			s.unavailable(w, "not ready")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /state", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.state.Load())
	})
	mux.HandleFunc("POST /admit", s.handleAdmit)
	mux.HandleFunc("POST /admit/batch", s.handleAdmitBatch)
	return mux
}

// decisionEntry is one per-event result in an admit response.
type decisionEntry struct {
	Decision runtimepkg.Decision `json:"decision"`
	Error    string              `json:"error,omitempty"`
}

// appendJSON appends the entry as compact JSON, byte-identical to
// json.Marshal of the struct.
func (e *decisionEntry) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"decision":`...)
	b, err := e.Decision.AppendJSON(b)
	if err != nil {
		return b, err
	}
	if e.Error != "" {
		b = append(b, `,"error":`...)
		b = runtimepkg.AppendJSONString(b, e.Error)
	}
	return append(b, '}'), nil
}

// emptyBatchReply answers a batch with no events.
const emptyBatchReply = `{"decisions":[]}` + "\n"

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.shed.Add(1)
		s.unavailable(w, "not ready")
		return
	}
	// Pooled zero-allocation decode: the ticket's event lives in the
	// decoder's scratch, so the decoder goes back to the pool only after
	// the engine's reply — and is deliberately leaked to the GC on
	// timeout, when the engine may still read it.
	d := getDecoder()
	engineMayRead := false // set when the handler stops waiting on the engine
	defer func() {
		if !engineMayRead {
			putDecoder(d)
		}
	}()
	evs, err := d.Decode(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding event: %v", err))
		return
	}
	evs[0].Epoch = 0 // the engine stamps the live epoch
	if err := evs[0].Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	deadline := DeadlineMs(r)
	if reason, retry := s.admitGate(deadline); reason != "" {
		s.shedAdaptive(w, reason, retry)
		return
	}
	t := ticket{evs: evs, reply: make(chan admitReply, 1)}
	ok, full := s.tryEnqueue(t)
	if !ok {
		s.shed.Add(1)
		if full {
			s.unavailable(w, "admission queue full")
		} else {
			s.unavailable(w, "draining")
		}
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.replyWait(deadline))
	defer cancel()
	select {
	case rep := <-t.reply:
		if rep.err != nil {
			httpError(w, http.StatusInternalServerError, rep.err.Error())
			return
		}
		evErr := rep.errs[0]
		if evErr != nil && !runtimepkg.IsStaleRequest(evErr) {
			httpError(w, http.StatusInternalServerError, evErr.Error())
			return
		}
		status := http.StatusOK
		if evErr != nil {
			status = http.StatusConflict
		}
		out := decisionEntry{Decision: rep.decs[0]}
		if evErr != nil {
			out.Error = evErr.Error()
		}
		body, err := out.appendJSON(d.ReplyBuf())
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		d.WriteJSON(w, status, append(body, '\n'))
	case <-ctx.Done():
		engineMayRead = true
		// The engine is saturated: the request was accepted and WILL be
		// applied (durably), but this client's wait is over. Shed it with
		// the same 503 + Retry-After contract as the front door, so
		// clients see one overload signal, not two.
		s.shed.Add(1)
		s.unavailable(w, "engine saturated; accepted admission still pending")
	}
}

func (s *Server) handleAdmitBatch(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.shed.Add(1)
		s.unavailable(w, "not ready")
		return
	}
	// Pooled decode, recycled after the engine's reply exactly as /admit.
	d := getDecoder()
	engineMayRead := false // set when the handler stops waiting on the engine
	defer func() {
		if !engineMayRead {
			putDecoder(d)
		}
	}()
	evs, err := d.DecodeBatch(http.MaxBytesReader(w, r.Body, 4<<20), s.opt.MaxBatchEvents)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decoding events: %v", err))
		return
	}
	if len(evs) == 0 {
		d.WriteJSON(w, http.StatusOK, append(d.ReplyBuf(), emptyBatchReply...))
		return
	}
	for i := range evs {
		evs[i].Epoch = 0 // the engine stamps the live epoch
	}

	deadline := DeadlineMs(r)
	if reason, retry := s.admitGate(deadline); reason != "" {
		s.shedAdaptive(w, reason, retry)
		return
	}
	t := ticket{evs: evs, reply: make(chan admitReply, 1)}
	ok, full := s.tryEnqueue(t)
	if !ok {
		s.shed.Add(1)
		if full {
			s.unavailable(w, "admission queue full")
		} else {
			s.unavailable(w, "draining")
		}
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.replyWait(deadline))
	defer cancel()
	select {
	case rep := <-t.reply:
		if rep.err != nil {
			httpError(w, http.StatusInternalServerError, rep.err.Error())
			return
		}
		body := append(d.ReplyBuf(), `{"decisions":[`...)
		for i := range rep.decs {
			if i > 0 {
				body = append(body, ',')
			}
			e := decisionEntry{Decision: rep.decs[i]}
			if rep.errs[i] != nil {
				e.Error = rep.errs[i].Error()
			}
			if body, err = e.appendJSON(body); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
		d.WriteJSON(w, http.StatusOK, append(body, "]}\n"...))
	case <-ctx.Done():
		engineMayRead = true
		s.shed.Add(1)
		s.unavailable(w, "engine saturated; accepted batch still pending")
	}
}

// unavailable writes the load-shedding 503 with a Retry-After hint
// derived from the live drain rate (falling back to the static option
// before the first batch has been measured).
func (s *Server) unavailable(w http.ResponseWriter, msg string) {
	s.unavailableHint(w, msg, s.retryHint())
}

// retryHint predicts how long the standing queue takes to drain — the
// honest backoff for a client shed at the door.
func (s *Server) retryHint() time.Duration {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if wait := s.ctl.predictWait(len(s.queue) + 1); wait > 0 {
		return wait
	}
	return s.opt.RetryAfter
}

// unavailableHint writes the 503 with an explicit hint: Retry-After in
// whole seconds (ceiling, minimum 1 — sub-second hints must never round
// to "retry immediately") plus Retry-After-Ms carrying the real value for
// clients that can honor milliseconds.
func (s *Server) unavailableHint(w http.ResponseWriter, msg string, hint time.Duration) {
	if hint <= 0 {
		hint = s.opt.RetryAfter
	}
	secs := int((hint + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	ms := int(hint / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Retry-After-Ms", strconv.Itoa(ms))
	httpError(w, http.StatusServiceUnavailable, msg)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
