package main

import (
	"fmt"
	"math/rand"

	schedrt "nprt/internal/runtime"
	"nprt/internal/task"
)

// workload fixes everything a run offers the system except the seed.
type workload struct {
	name string
	// offline runs in process with no HTTP (offline-plan); the other
	// workloads drive impserve, which runs with default flags (one shard,
	// the internal/serve stack).
	offline bool

	// HTTP request shape: a closed loop of conns clients, each posting
	// batch events per /admit/batch request.
	batch  int
	conns  int
	remove float64 // chance a slot removes the oldest admitted task

	warmup float64 // seconds excluded before the measured window
	// maxLagMs: a run whose generator lateness p99 exceeds this is invalid
	// (the generator, not the server, fell behind).
	maxLagMs float64
	// replayRequests is the traced replay's request count.
	replayRequests int
	// epochEvery is the traced runtime replay's epoch cadence in events
	// (the e2e server runs one epoch every 50 ms instead).
	epochEvery int
}

var workloads = []workload{
	{
		name:  "ingest-batch-1shard",
		batch: 64, conns: 2, remove: 0.25,
		warmup: 2, maxLagMs: 50,
		replayRequests: 120, epochEvery: 1024,
	},
	{name: "offline-plan", offline: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// model is one client's view of the service: a seeded stream of fresh
// task names and the FIFO of names it has seen admitted and not yet
// removed. Adds always use fresh names and removes only name admitted
// tasks, so the stream is stale-free by construction: any 409 or
// per-entry error is a failure.
type model struct {
	prefix   string
	rng      *rand.Rand
	fresh    int
	resident []string
}

func newModel(seed uint64, client int) *model {
	return &model{
		prefix: fmt.Sprintf("c%d-", client),
		rng:    rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15) ^ int64(client+1))),
	}
}

// add draws a fresh task from the loadgen mix: periods 40/60/80 and WCET
// 8-15, about 0.2 accurate utilization each, so one shard holds ~20.
func (m *model) add() schedrt.Event {
	name := fmt.Sprintf("%s%d", m.prefix, m.fresh)
	m.fresh++
	w := task.Time(8 + m.rng.Intn(8))
	t := task.Task{
		Name: name, Period: task.Time(40 + 20*m.rng.Intn(3)),
		WCETAccurate: w, WCETImprecise: w / 3,
		ExecAccurate:  task.Dist{Mean: float64(w) * 0.6, Sigma: 1, Min: 1, Max: float64(w)},
		ExecImprecise: task.Dist{Mean: float64(w) * 0.2, Sigma: 0.3, Min: 0.5, Max: float64(w) / 3},
		Error:         task.Dist{Mean: 2, Sigma: 0.5},
	}
	return schedrt.Event{Op: "add", Task: &schedrt.TaskSpec{Task: t}}
}

// popRemove removes the oldest admitted task from the model and returns
// the event that removes it; ok is false when nothing is resident.
func (m *model) popRemove() (schedrt.Event, bool) {
	if len(m.resident) == 0 {
		return schedrt.Event{}, false
	}
	name := m.resident[0]
	m.resident = m.resident[1:]
	return schedrt.Event{Op: "remove", Name: name}, true
}

// closedBatch draws one closed-loop request: each slot removes the oldest
// admitted task with probability p, else adds a fresh one.
func (m *model) closedBatch(n int, p float64) []schedrt.Event {
	evs := make([]schedrt.Event, 0, n)
	for len(evs) < n {
		if m.rng.Float64() < p {
			if ev, ok := m.popRemove(); ok {
				evs = append(evs, ev)
				continue
			}
		}
		evs = append(evs, m.add())
	}
	return evs
}

// observe folds one verdict into the model. It returns an error when the
// reply contradicts the request (wrong op or task, unexpected error).
func (m *model) observe(ev schedrt.Event, d schedrt.Decision, errMsg string) error {
	name := ev.Name
	if ev.Op == "add" {
		name = ev.Task.Task.Name
	}
	if errMsg != "" {
		return fmt.Errorf("%s %s: %s", ev.Op, name, errMsg)
	}
	if d.Op != ev.Op || d.Task != name {
		return fmt.Errorf("%s %s answered as %s %s", ev.Op, name, d.Op, d.Task)
	}
	if ev.Op == "add" && d.Verdict != schedrt.Rejected {
		m.resident = append(m.resident, name)
	}
	if ev.Op == "remove" && d.Verdict == schedrt.Rejected {
		return fmt.Errorf("remove %s rejected", name)
	}
	return nil
}
