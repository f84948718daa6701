package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"nprt/internal/journal"
)

// The chaos soak is the failure-containment counterpart of the cluster
// soak: the same seeded churn tape, but the cluster is tormented while it
// plays. Every shard WAL sits on a deterministic fault injector
// (journal.FaultFS — refused fsyncs, torn writes, full disks, stalls, all
// pure in (seed, op index)), and a seeded chaos plan kills shards
// (crash-restart through recovery) and wedges them (declared Failed, then
// evacuated through the checkpoint-handoff migration path and re-imaged)
// at tick boundaries, pure in (seed, tick).
//
// The soak's claims, held per width and checked here rather than sampled:
//
//   - Zero silently lost: every task the tape admitted and never removed —
//     minus the explicitly journaled evictions — is live on exactly one
//     shard at the end, and the partition map knows where.
//   - Zero clean misses anywhere: migrated tasks are re-screened by their
//     target's own Theorem-1 admission, so no resident set ever exceeds
//     what the screen proved schedulable — faults and evacuations included.
//   - Digest-reproducible: two serial drives agree bit for bit, and the
//     concurrent group-commit drive agrees with them — same per-shard
//     digests, same final owner map — because kills and wedges key on the
//     monotonic tick counter (NOT the cluster epoch, which re-levels
//     through old values while a re-imaged shard catches up) and transient
//     storage faults are healed by the retry loop before they can change
//     any applied sequence.

// ChaosShardCounts is the default width sweep for the chaos soak.
var ChaosShardCounts = []int{8, 64}

// chaosKillRate / chaosEvacRate are per-tick probabilities of a driver
// action: crash-restart a uniformly drawn shard, or wedge-fail and
// evacuate it. Small enough that most ticks are quiet, large enough that a
// few hundred ticks see several of each.
const (
	chaosKillRate = 0.02
	chaosEvacRate = 0.012
)

// chaosFaultRates is the per-shard storage-fault mix: low rates, because
// the containment loop must keep every fault transient — the retry budget
// has to make escalation to Failed vanishingly improbable, since that is
// what lets the parallel and serial drives converge despite seeing
// different op indices. The budget must comfortably outlast a full stall
// window (StallOps failed ops) plus the handful of fresh fault draws the
// reopen-retries themselves consume; ten attempts put the escalation
// probability past a stall at ~(per-op fault rate)^6.
var chaosFaultRates = journal.FaultRates{
	SyncFailProb: 0.002,
	TornProb:     0.001,
	FullProb:     0.0005,
	StallProb:    0.0005,
	StallOps:     3,
}

// chaosFolRate is the replicated-mode per-tick probability of wedging a
// follower drive (in addition to the primary wedges that reuse the
// chaosEvacRate window): ship failures must demote followers and re-seeds
// must restore them as routinely as primaries fail over.
const chaosFolRate = 0.01

// chaosSchedule is the chaos soak: storage faults on every drive, and per
// tick a kill, a wedge-evacuation (unreplicated) or a primary wedge
// (replicated) in one shared band, then a follower wedge (replicated).
var chaosSchedule = soakSchedule{
	name:   "chaos",
	faults: chaosFaultRates,
	bands: []soakBand{
		{chaosKillRate, soakKill},
		{chaosKillRate + chaosEvacRate, soakWedgePrimary},
		{chaosKillRate + chaosEvacRate, soakEvacuate},
		{chaosKillRate + chaosEvacRate + chaosFolRate, soakWedgeFollower},
	},
}

// ChaosRow is the outcome at one cluster width.
type ChaosRow struct {
	Shards int `json:"shards"`
	Events int `json:"events"`
	Ticks  int `json:"ticks"`

	Kills    int `json:"kills"`
	Evacs    int `json:"evacs"`
	Migrated int `json:"migrated"`
	Evicted  int `json:"evicted"`

	// Reopens / StoreErrs sum the health counters over shards: how much
	// containment work the injected faults actually caused.
	Reopens   uint64 `json:"reopens"`
	StoreErrs uint64 `json:"store_errs"`

	Misses      int64 `json:"misses"`
	MissesClean int64 `json:"misses_clean"`

	// Resident is the final partition-map size; Lost counts tasks the model
	// says should be live but are not (must be 0); Orphans counts live
	// tasks the model does not expect (must be 0).
	Resident int `json:"resident"`
	Lost     int `json:"lost"`
	Orphans  int `json:"orphans"`

	// Replicated-mode counters (zero when Replicas == 0). Wedges counts
	// primary-drive kills absorbed by failover instead of shedding;
	// FollowerWedges counts follower-drive kills absorbed by demotion.
	// Promotions/Demotions/Reseeds sum the per-shard health counters: how
	// much failover work the torment actually caused.
	Replicas       int    `json:"replicas,omitempty"`
	Wedges         int    `json:"wedges,omitempty"`
	FollowerWedges int    `json:"follower_wedges,omitempty"`
	Promotions     uint64 `json:"promotions,omitempty"`
	Demotions      uint64 `json:"demotions,omitempty"`
	Reseeds        uint64 `json:"reseeds,omitempty"`

	Digests       []string `json:"digests"`
	RepeatMatch   bool     `json:"repeat_match"`
	ParallelMatch bool     `json:"parallel_match"`
}

// ChaosResult is the full artifact.
type ChaosResult struct {
	Events   int        `json:"events"`
	Seed     uint64     `json:"seed"`
	Policy   string     `json:"policy"`
	Replicas int        `json:"replicas,omitempty"`
	Rows     []ChaosRow `json:"rows"`
}

// ChaosSoak plays one churn tape per width under the full torment plan:
// storage faults on every shard WAL, seeded kills, seeded wedge-and-
// evacuate cycles. Each width drives the tape three times — serial, serial
// again, concurrent — and requires all three to agree exactly; a lost
// task, an unexpected survivor, a clean miss, or any digest divergence is
// an error, not a data point.
//
// With replicas > 0 every shard carries that many synchronous followers
// and the expect-model tightens to zero-shed: wedges land on primary and
// follower drives alike, failures are absorbed by promotion and re-seed
// instead of evacuation, and the run errors on ANY shed, eviction,
// lingering out-of-sync follower, or promotion-count divergence between
// the drives — on top of the unreplicated soak's lost/orphan/miss gates.
func ChaosSoak(cfg Config, dir string, events int, shardCounts []int, policy string, replicas int) (*ChaosResult, error) {
	p := soakArgs{cfg, dir, events, shardCounts, policy, replicas}.withDefaults(ChaosShardCounts)
	widths, err := chaosSchedule.run(p)
	if err != nil {
		return nil, err
	}
	out := &ChaosResult{Events: p.events, Seed: p.cfg.Seed, Policy: p.policy, Replicas: p.replicas}
	for _, w := range widths {
		a := w.a
		out.Rows = append(out.Rows, ChaosRow{
			Shards:         w.shards,
			Events:         w.events,
			Ticks:          a.ticks,
			Kills:          a.kills,
			Evacs:          a.evacs,
			Migrated:       a.migrated,
			Evicted:        a.evicted,
			Reopens:        a.health.Reopens,
			StoreErrs:      a.health.TotalErrs,
			Misses:         a.metrics.Misses,
			MissesClean:    a.metrics.MissesClean,
			Resident:       len(a.owners),
			Lost:           w.lost,
			Orphans:        w.orphans,
			Replicas:       p.replicas,
			Wedges:         a.wedges,
			FollowerWedges: a.fwedges,
			Promotions:     a.health.Promotions,
			Demotions:      a.health.ReplicaDemotions,
			Reseeds:        a.health.ReplicaReseeds,
			Digests:        w.digests,
			RepeatMatch:    w.repeatMatch,
			ParallelMatch:  w.parMatch,
		})
	}
	return out, nil
}

// FormatChaosSoak renders the soak summary.
func FormatChaosSoak(r *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CHAOS SOAK. %d-EVENT CHURN TAPE UNDER STORAGE FAULTS, KILLS AND EVACUATIONS (policy %s, seed %d, replicas %d)\n",
		r.Events, r.Policy, r.Seed, r.Replicas)
	fmt.Fprintf(&b, "%-7s %6s %6s %6s %9s %8s %8s %9s %7s %7s %7s %6s %5s %7s %7s %8s\n",
		"shards", "ticks", "kills", "evacs", "migrated", "evicted", "reopens", "storeerrs",
		"wedges", "promos", "reseeds", "miss", "clean", "lost", "repeat", "par==ser")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7d %6d %6d %6d %9d %8d %8d %9d %7d %7d %7d %6d %5d %7d %7v %8v\n",
			row.Shards, row.Ticks, row.Kills, row.Evacs, row.Migrated, row.Evicted,
			row.Reopens, row.StoreErrs, row.Wedges+row.FollowerWedges, row.Promotions,
			row.Reseeds, row.Misses, row.MissesClean, row.Lost,
			row.RepeatMatch, row.ParallelMatch)
	}
	return b.String()
}

// WriteChaosSoakCSV emits the per-width rows.
func WriteChaosSoakCSV(w io.Writer, r *ChaosResult) error {
	recs := [][]string{{"shards", "events", "ticks", "kills", "evacs", "migrated",
		"evicted", "reopens", "store_errs", "misses", "misses_clean", "resident",
		"lost", "orphans", "replicas", "wedges", "follower_wedges", "promotions",
		"demotions", "reseeds", "repeat_match", "parallel_match"}}
	for _, row := range r.Rows {
		recs = append(recs, []string{
			strconv.Itoa(row.Shards),
			strconv.Itoa(row.Events),
			strconv.Itoa(row.Ticks),
			strconv.Itoa(row.Kills),
			strconv.Itoa(row.Evacs),
			strconv.Itoa(row.Migrated),
			strconv.Itoa(row.Evicted),
			strconv.FormatUint(row.Reopens, 10),
			strconv.FormatUint(row.StoreErrs, 10),
			strconv.FormatInt(row.Misses, 10),
			strconv.FormatInt(row.MissesClean, 10),
			strconv.Itoa(row.Resident),
			strconv.Itoa(row.Lost),
			strconv.Itoa(row.Orphans),
			strconv.Itoa(row.Replicas),
			strconv.Itoa(row.Wedges),
			strconv.Itoa(row.FollowerWedges),
			strconv.FormatUint(row.Promotions, 10),
			strconv.FormatUint(row.Demotions, 10),
			strconv.FormatUint(row.Reseeds, 10),
			strconv.FormatBool(row.RepeatMatch),
			strconv.FormatBool(row.ParallelMatch),
		})
	}
	return csv.NewWriter(w).WriteAll(recs)
}
