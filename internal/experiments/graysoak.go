package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The gray soak is the gray-failure counterpart of the chaos soak: no
// drive ever dies, but seeded brownouts make one drive at a time SLOW —
// every op on it still succeeds, just 5x over the latency SLO. That is
// the failure mode fail-stop health machines are blind to: nothing
// errors, retries all succeed, and yet every event routed to the browned
// primary blows its client deadline.
//
// The soak drives the same churn tape twice per width: once with the
// latency signal armed (LatencySLO + AdmitDeadline — the windowed WAL-
// sojourn p99 fences slow shards from placement, sheds deadline-carrying
// removes, and with replicas proactively promotes away from the browned
// primary) and once with it off. The claims, checked rather than sampled:
//
//   - Nothing is lost or orphaned, and no CLEAN deadline is ever missed:
//     brownouts delay the WAL, never the admission screen, so every
//     resident set stays Theorem-1 schedulable throughout.
//   - The signal contains the gray failure: with replicas, every
//     brownout window forces at least one promotion away from the slow
//     primary, and the signal-armed drive's browned-window misses never
//     exceed the blind drive's (detection costs at most one tick; the
//     blind drive eats the full window).
//   - Digest-reproducible: the signal-armed drive repeats bit-identically
//     and the concurrent group-commit drive agrees — same digests, same
//     owners, same per-shard promotion counts, same shed and miss
//     counts — because brownouts delay EVERY op on the drive equally, so
//     the windowed p99 is the brownout delay itself regardless of how
//     many ops a serial or parallel drive happens to issue, and all
//     clocks are virtual (sleeps advance them instantly and exactly).

// GrayShardCounts is the default width sweep for the gray soak.
var GrayShardCounts = []int{8, 64}

const (
	// grayBrownRate is the per-tick probability of starting a brownout on
	// a uniformly drawn shard's current primary drive.
	grayBrownRate = 0.04
	// grayBrownTicks is how many ticks a brownout lasts when the latency
	// signal is off (the armed drive promotes away long before expiry).
	grayBrownTicks = 4
	// grayDelay is the browned drive's per-op delay; graySLO is the WAL
	// sojourn p99 ceiling; grayDeadline is the per-event client deadline.
	// delay > deadline > SLO: a browned primary misses every deadline,
	// and the tracker (log2 buckets: 10ms rounds up to 16.8ms) sees the
	// breach on the first windowed sample.
	grayDelay    = 10 * time.Millisecond
	graySLO      = 2 * time.Millisecond
	grayDeadline = 5 * time.Millisecond
)

// graySchedule is the gray soak: fault-free drives on virtual clocks, the
// latency signal armed, and per tick at most one brownout. Every injector
// is zero-rate (brownouts are the ONLY torment, driver-initiated at tick
// boundaries — a seeded per-op slow probability would diverge between
// serial and parallel drives, whose op counts differ).
var graySchedule = soakSchedule{
	name:   "gray",
	clocks: true,
	signal: true,
	bands:  []soakBand{{grayBrownRate, soakBrownout}},
}

// GrayRow is the outcome at one cluster width.
type GrayRow struct {
	Shards int `json:"shards"`
	Events int `json:"events"`
	Ticks  int `json:"ticks"`

	// Brownouts counts gray-failure windows injected; SlowEvents and
	// Promotions sum the armed drive's per-shard health counters — how
	// often the latency signal fired and how often it failed over.
	Brownouts  int    `json:"brownouts"`
	SlowEvents uint64 `json:"slow_events"`
	Promotions uint64 `json:"promotions,omitempty"`

	// Misses counts events the ARMED drive applied on a shard whose
	// primary drive was browned (each such apply waits ≥ grayDelay >
	// grayDeadline: a missed client deadline). MissesNoSignal is the same
	// count on the BLIND drive (LatencySLO = AdmitDeadline = 0).
	// DeadlineSheds counts events the armed drive refused at routing
	// because the only candidate was over SLO.
	Misses         int    `json:"misses"`
	MissesNoSignal int    `json:"misses_no_signal"`
	DeadlineSheds  uint64 `json:"deadline_sheds"`

	// MissesClean are scheduler-level deadline misses under the shedding
	// governor's clean windows (must be 0: brownouts never touch the
	// admission screen). Lost/Orphans are the partition-map audit
	// (must be 0).
	MissesClean int64 `json:"misses_clean"`
	Resident    int   `json:"resident"`
	Lost        int   `json:"lost"`
	Orphans     int   `json:"orphans"`

	Replicas int `json:"replicas,omitempty"`

	Digests       []string `json:"digests"`
	RepeatMatch   bool     `json:"repeat_match"`
	ParallelMatch bool     `json:"parallel_match"`
}

// GrayResult is the full artifact.
type GrayResult struct {
	Events   int       `json:"events"`
	Seed     uint64    `json:"seed"`
	Policy   string    `json:"policy"`
	Replicas int       `json:"replicas,omitempty"`
	Rows     []GrayRow `json:"rows"`
}

// GraySoak plays one churn tape per width under seeded brownouts. Each
// width drives the tape four times: signal-armed serial twice and
// concurrent once (all three must agree exactly — digests, owners,
// promotions, sheds, misses), plus one BLIND serial drive (latency
// signal off) whose browned-window miss count lower-bounds what the
// signal must beat. A lost task, an orphan, a clean-window scheduler
// miss, any divergence, a brownout absorbed without promotion (replicas
// > 0), or an armed drive missing more deadlines than the blind one is
// an error, not a data point.
func GraySoak(cfg Config, dir string, events int, shardCounts []int, policy string, replicas int) (*GrayResult, error) {
	p := soakArgs{cfg, dir, events, shardCounts, policy, replicas}.withDefaults(GrayShardCounts)
	widths, err := graySchedule.run(p)
	if err != nil {
		return nil, err
	}
	out := &GrayResult{Events: p.events, Seed: p.cfg.Seed, Policy: p.policy, Replicas: p.replicas}
	for _, w := range widths {
		a := w.a
		// DeadlineSheds is the driver-side event count; the per-shard health
		// counters tally the same events, so folding them in would
		// double-count.
		out.Rows = append(out.Rows, GrayRow{
			Shards:         w.shards,
			Events:         w.events,
			Ticks:          a.ticks,
			Brownouts:      a.brownouts,
			SlowEvents:     a.health.SlowEvents,
			Promotions:     a.health.Promotions,
			Misses:         a.misses,
			MissesNoSignal: w.blindMisses,
			DeadlineSheds:  a.sheds,
			MissesClean:    a.metrics.MissesClean,
			Resident:       len(a.owners),
			Lost:           w.lost,
			Orphans:        w.orphans,
			Replicas:       p.replicas,
			Digests:        w.digests,
			RepeatMatch:    w.repeatMatch,
			ParallelMatch:  w.parMatch,
		})
	}
	return out, nil
}

// FormatGraySoak renders the soak summary.
func FormatGraySoak(r *GrayResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "GRAY SOAK. %d-EVENT CHURN TAPE UNDER SEEDED BROWNOUTS (policy %s, seed %d, replicas %d, delay %v, slo %v, deadline %v)\n",
		r.Events, r.Policy, r.Seed, r.Replicas, grayDelay, graySLO, grayDeadline)
	fmt.Fprintf(&b, "%-7s %6s %6s %6s %7s %7s %7s %7s %6s %5s %7s %8s\n",
		"shards", "ticks", "brown", "slow", "promos", "sheds", "miss", "blind", "clean", "lost", "repeat", "par==ser")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7d %6d %6d %6d %7d %7d %7d %7d %6d %5d %7v %8v\n",
			row.Shards, row.Ticks, row.Brownouts, row.SlowEvents, row.Promotions,
			row.DeadlineSheds, row.Misses, row.MissesNoSignal, row.MissesClean,
			row.Lost, row.RepeatMatch, row.ParallelMatch)
	}
	return b.String()
}

// WriteGraySoakCSV emits the per-width rows.
func WriteGraySoakCSV(w io.Writer, r *GrayResult) error {
	recs := [][]string{{"shards", "events", "ticks", "brownouts", "slow_events",
		"promotions", "deadline_sheds", "misses", "misses_no_signal", "misses_clean",
		"resident", "lost", "orphans", "replicas", "repeat_match", "parallel_match"}}
	for _, row := range r.Rows {
		recs = append(recs, []string{
			strconv.Itoa(row.Shards),
			strconv.Itoa(row.Events),
			strconv.Itoa(row.Ticks),
			strconv.Itoa(row.Brownouts),
			strconv.FormatUint(row.SlowEvents, 10),
			strconv.FormatUint(row.Promotions, 10),
			strconv.FormatUint(row.DeadlineSheds, 10),
			strconv.Itoa(row.Misses),
			strconv.Itoa(row.MissesNoSignal),
			strconv.FormatInt(row.MissesClean, 10),
			strconv.Itoa(row.Resident),
			strconv.Itoa(row.Lost),
			strconv.Itoa(row.Orphans),
			strconv.Itoa(row.Replicas),
			strconv.FormatBool(row.RepeatMatch),
			strconv.FormatBool(row.ParallelMatch),
		})
	}
	return csv.NewWriter(w).WriteAll(recs)
}
