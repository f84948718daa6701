package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"nprt/internal/esr"
	"nprt/internal/ilp"
	"nprt/internal/offline"
	"nprt/internal/policy"
	schedrt "nprt/internal/runtime"
	"nprt/internal/sim"
	"nprt/internal/task"
	suite "nprt/internal/workload"
)

const (
	// ilpNodeBudget is experiments.ILPBench's fixed branch-and-bound
	// budget: every configuration explores the same search.
	ilpNodeBudget = 200
	// offlineHyperperiods is H, the simulated hyper-periods per plan.
	offlineHyperperiods = 100
	// refSeeds is how many simulation seeds the stored reference covers;
	// run seed n simulates with seed 1 + n mod refSeeds.
	refSeeds = 16
	// replayRounds is how many times the traced replay admits and removes
	// every Table I case.
	replayRounds = 10
)

// offlineMethods are the methods experiments.Table2 plans per case: the
// EDF-Accurate miss baseline and the five Table II methods.
var offlineMethods = []string{"EDF-Accurate", "EDF-Imprecise", "EDF+ESR", "ILP+OA", "ILP+Post+OA", "Flipped EDF"}

func buildPolicy(method string, s *task.Set) (sim.Policy, error) {
	switch method {
	case "EDF-Accurate":
		return policy.NewEDFAccurate(), nil
	case "EDF-Imprecise":
		return policy.NewEDFImprecise(), nil
	case "EDF+ESR":
		return esr.New(), nil
	case "ILP+OA":
		return offline.NewILPOABestEffort(s)
	case "ILP+Post+OA":
		return offline.NewILPPostOABestEffort(s)
	case "Flipped EDF":
		return offline.NewFlippedEDFBestEffort(s)
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

type simRef struct {
	MeanError float64 `json:"mean_error"`
	Misses    int64   `json:"misses"`
}

type ilpRef struct {
	Status    string  `json:"status"`
	Objective float64 `json:"objective"`
	Nodes     int     `json:"nodes"`
}

// offlineRef is the stored reference: per case, the ILP outcome at the
// node budget, and per simulation seed, each method's mean error and miss
// count over H hyper-periods.
type offlineRef struct {
	Hyperperiods int                            `json:"hyperperiods"`
	NodeBudget   int                            `json:"ilp_node_budget"`
	ILP          map[string]ilpRef              `json:"ilp"`
	Sim          []map[string]map[string]simRef `json:"sim"`
}

// refPath is the stored reference, relative to the repository root.
var refPath = filepath.Join("perfbench", "ref", "offline.json")

func simSeedFor(seed uint64) uint64 { return 1 + seed%refSeeds }

// loadCases builds every Table I case's task set from scratch.
func loadCases() ([]string, []*task.Set, error) {
	cases, err := suite.Cases()
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(cases))
	sets := make([]*task.Set, len(cases))
	for i, c := range cases {
		if sets[i], err = c.Set(); err != nil {
			return nil, nil, err
		}
		names[i] = c.Name
	}
	return names, sets, nil
}

// planAndSimulate is one planning request: build the method's policy on
// the set and simulate H hyper-periods, as experiments.Table2 does.
func planAndSimulate(method string, s *task.Set, simSeed uint64) (simRef, error) {
	p, err := buildPolicy(method, s)
	if err != nil {
		return simRef{}, err
	}
	res, err := sim.Run(s, p, sim.Config{
		Hyperperiods: offlineHyperperiods,
		Sampler:      sim.NewRandomSampler(s, simSeed),
		DropLate:     method == "EDF-Accurate",
	})
	if err != nil {
		return simRef{}, err
	}
	return simRef{MeanError: res.MeanError(), Misses: res.Misses.Events}, nil
}

// solveILP is one ILP request: the §IV-A mode ILP at the node budget, as
// experiments.ILPBench does.
func solveILP(s *task.Set) (ilpRef, error) {
	order, err := offline.EDFOrder(s, task.Deepest)
	if err != nil {
		return ilpRef{Status: "no-order"}, nil
	}
	sol, err := ilp.Solve(offline.BuildModeILP(s, order), ilp.Options{MaxNodes: ilpNodeBudget, Workers: ilpWorkers})
	if err != nil {
		return ilpRef{}, err
	}
	r := ilpRef{Status: sol.Status.String(), Nodes: sol.Nodes}
	if !math.IsInf(sol.Objective, 0) {
		r.Objective = sol.Objective
	}
	return r, nil
}

// writeOfflineRef computes the reference for every simulation seed.
func writeOfflineRef(path string) error {
	names, sets, err := loadCases()
	if err != nil {
		return err
	}
	ref := offlineRef{Hyperperiods: offlineHyperperiods, NodeBudget: ilpNodeBudget, ILP: map[string]ilpRef{}}
	for i, s := range sets {
		if ref.ILP[names[i]], err = solveILP(s); err != nil {
			return err
		}
	}
	for seed := uint64(0); seed < refSeeds; seed++ {
		per := map[string]map[string]simRef{}
		for i, s := range sets {
			per[names[i]] = map[string]simRef{}
			for _, m := range offlineMethods {
				if per[names[i]][m], err = planAndSimulate(m, s, simSeedFor(seed)); err != nil {
					return err
				}
			}
		}
		ref.Sim = append(ref.Sim, per)
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readOfflineRef(path string) (*offlineRef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref offlineRef
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if ref.Hyperperiods != offlineHyperperiods || ref.NodeBudget != ilpNodeBudget || len(ref.Sim) != refSeeds {
		return nil, fmt.Errorf("%s: reference is for other settings", path)
	}
	return &ref, nil
}

// runOffline is the offline-plan workload: whole passes over every Table I
// case — each method planned and simulated, then the mode ILP — until the
// run's time is spent. Every result must equal the stored reference.
func runOffline(seed uint64, seconds float64) (*outcome, error) {
	out := &outcome{}
	var setups []float64
	var names []string
	var sets []*task.Set
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if names, sets, err = loadCases(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ref, err := readOfflineRef(refPath)
	if err != nil {
		return nil, err
	}
	simSeed := simSeedFor(seed)
	simRefs := ref.Sim[simSeed-1]

	steal := stealMeter()
	cpu0 := cpuSelf()
	var lagMs, passS, p50s, p99s []float64
	clean, requests := 0, 0
	perPass := 0
	start := time.Now()
	prev := start
	for len(passS) == 0 || time.Since(start).Seconds() < seconds {
		passStart := time.Now()
		clean = 0
		perPass = 0
		var latMs []float64
		request := func(name string, fn func() (bool, error)) {
			t0 := time.Now()
			lagMs = append(lagMs, ms(t0.Sub(prev)))
			ok, err := fn()
			done := time.Now()
			prev = done
			requests++
			perPass++
			latMs = append(latMs, ms(done.Sub(t0)))
			if err != nil {
				out.fail("%s: %v", name, err)
				return
			}
			if ok {
				clean++
			}
		}
		for i, s := range sets {
			for _, m := range offlineMethods {
				request(names[i]+"/"+m, func() (bool, error) {
					got, err := planAndSimulate(m, s, simSeed)
					if err != nil {
						return false, err
					}
					if want := simRefs[names[i]][m]; got != want {
						return false, fmt.Errorf("got %+v, reference %+v", got, want)
					}
					return got.Misses == 0, nil
				})
			}
			request(names[i]+"/ILP", func() (bool, error) {
				got, err := solveILP(s)
				if err != nil {
					return false, err
				}
				if want := ref.ILP[names[i]]; got != want {
					return false, fmt.Errorf("got %+v, reference %+v", got, want)
				}
				return got.Status == "optimal" || got.Status == "feasible", nil
			})
		}
		passS = append(passS, time.Since(passStart).Seconds())
		p50s = append(p50s, quantile(latMs, 0.5))
		p99s = append(p99s, quantile(latMs, 0.99))
	}
	cpu, stolen := cpuSelf()-cpu0, steal()
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	// Rates and latencies come from the median whole pass, so a run never
	// ends on a partial pass over cases of very different cost, and a burst
	// of host noise moves one pass, not the result.
	pass := median(passS)
	n := fmt.Sprintf("n=%d; median of %d passes", requests, len(passS))
	out.attempted = requests
	out.lagMs = lagMs
	out.e2e = []metric{
		{"setup_s", "s", median(setups), ""},
		{"cpu_us_per_event", "us", cpu * 1e6 / float64(requests),
			fmt.Sprintf("process user+system CPU per planning request; %d whole passes of %d", len(passS), perPass)},
		{"peak_rss_mb", "MB", rss, "bench process"},
	}
	out.info = []metric{
		{"events_per_s", "1/s", float64(perPass) / pass, "planning requests per second of the median pass"},
		{"admits_per_s", "1/s", float64(clean) / pass, "requests with a miss-free plan or an ILP incumbent"},
		{"latency_p50_ms", "ms", median(p50s), n},
		{"latency_p99_ms", "ms", median(p99s), n},
		{"cases_per_s", "1/s", float64(len(sets)) / pass, ""},
		{"steal_share", "share", stolen, "CPU time the hypervisor gave to other guests"},
	}
	out.checkSteal(stolen)
	out.note("sim_seed", simSeed)
	return out, nil
}

// generateOfflineInput is offline-plan's traced request sequence: rounds
// of admitting every Table I case's tasks as one batch and then removing
// the admitted ones as another. The offline layers plan the Table I sets
// themselves.
func generateOfflineInput(seed uint64, dir string) (*replayInput, error) {
	names, sets, err := loadCases()
	if err != nil {
		return nil, err
	}
	st, err := generatingStore(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	in := &replayInput{epochEvery: 64, simSeed: simSeedFor(seed), planSets: sets}
	for r := 0; r < replayRounds; r++ {
		for i, s := range sets {
			var adds []schedrt.Event
			for _, t := range s.Tasks() {
				t.Name = fmt.Sprintf("r%d/%s/%s", r, names[i], t.Name)
				t.ID = 0
				adds = append(adds, schedrt.Event{Op: "add", Task: &schedrt.TaskSpec{Task: t}})
			}
			decs, err := in.answer(st, adds)
			if err != nil {
				return nil, err
			}
			var removes []schedrt.Event
			for j, ev := range adds {
				if decs[j].Verdict != schedrt.Rejected {
					removes = append(removes, schedrt.Event{Op: "remove", Name: ev.Task.Task.Name})
				}
			}
			if len(removes) == 0 {
				continue
			}
			if _, err := in.answer(st, removes); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}
