package experiments

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"nprt/internal/cluster"
	"nprt/internal/journal"
	"nprt/internal/rng"
	schedrt "nprt/internal/runtime"
)

// One harness drives both failure soaks. A soakSchedule is the whole of
// what distinguishes them — the storage-fault mix, the clocks, the latency
// signal and a band table of tick actions — and soakSchedule.run does the
// rest: open a cluster over per-(shard, slot) fault injectors, walk the
// monotonic tick loop (draw → action, route due events, RunEpoch, tick-end
// heal and re-seed, checkpoint every 32 ticks), audit the replicas at the
// end, and compare serial / serial / parallel outcomes.

// soakAction is one kind of tick-boundary torment.
type soakAction int

const (
	// soakQuiet leaves the tick alone.
	soakQuiet soakAction = iota
	// soakKill crash-restarts the victim shard through recovery.
	soakKill
	// soakEvacuate wedges the victim's drive, declares the shard Failed,
	// drains it through the checkpoint-handoff path and re-images it.
	soakEvacuate
	// soakWedgePrimary kills the drive under the victim's current primary;
	// failover must absorb it.
	soakWedgePrimary
	// soakWedgeFollower kills the drive under the victim's first follower;
	// the next ship must demote it.
	soakWedgeFollower
	// soakBrownout makes the victim's current primary drive slow.
	soakBrownout
)

// applies reports whether the action is possible at this width: an
// evacuation needs a shard to drain into, and drive wedges need a
// follower to fail over to or to demote.
func (a soakAction) applies(shards, replicas int) bool {
	switch a {
	case soakEvacuate:
		return shards > 1
	case soakWedgePrimary, soakWedgeFollower:
		return replicas > 0
	}
	return true
}

// soakBand is one row of a schedule's cumulative band table.
type soakBand struct {
	below  float64
	action soakAction
}

// soakSchedule is one soak, as data.
type soakSchedule struct {
	// name prefixes run directories and error text.
	name string
	// faults is every drive's seeded storage-fault mix.
	faults journal.FaultRates
	// clocks gives each shard one VirtualClock, shared by its slots' fault
	// injectors and its store writer, so injected delays are observed
	// exactly and cost no wall-clock.
	clocks bool
	// signal arms the latency signal (SLO fencing, deadline sheds,
	// proactive promotion) and adds a blind serial control drive per width.
	signal bool
	bands  []soakBand
}

// action maps the tick's action draw through the band table: the first
// band whose cumulative upper bound exceeds the draw and whose action
// applies at this width wins.
func (s *soakSchedule) action(draw float64, shards, replicas int) soakAction {
	for _, b := range s.bands {
		if draw < b.below && b.action.applies(shards, replicas) {
			return b.action
		}
	}
	return soakQuiet
}

const (
	chaosTickSalt    = 0x9e3779b97f4a7c15
	chaosShardSalt   = 0xd1b54a32d192ed03
	chaosReplicaSalt = 0x94d049bb133111eb
)

// chaosDraw is the pure (seed, tick) action draw: two floats — one for the
// action kind, one for the victim shard.
func chaosDraw(seed uint64, tick int) (action, victim float64) {
	st := rng.New(seed ^ uint64(tick+1)*chaosTickSalt)
	return st.Float64(), st.Float64()
}

// soakOutcome is one drive's complete observable state.
type soakOutcome struct {
	digests []uint64
	owners  map[string]int
	live    map[string]int
	expect  map[string]bool
	metrics schedrt.Metrics
	// promotions is the per-shard promotion count; health sums the
	// per-shard health counters.
	promotions                             []uint64
	health                                 cluster.ShardHealth
	ticks, kills, evacs, migrated, evicted int
	wedges, fwedges, brownouts             int
	// misses counts events applied through a browned primary (each waited
	// ≥ grayDelay > grayDeadline: a missed client deadline); sheds counts
	// events the armed router refused because their shard was over SLO.
	misses int
	sheds  uint64
}

// soakBrown tracks one active brownout: which slot is slow and the tick
// after which it heals.
type soakBrown struct {
	slot  int
	until int
}

// drive plays the tape on a fresh cluster under dir with the schedule's
// torment, in the given drive mode, and returns the outcome. armed turns
// on the latency signal. The cluster directory is removed before
// returning.
//
// With replicas > 0 the torment targets drives, not shards: a wedge lands
// on the current primary slot's injector (the failover path must absorb
// it with zero shed — any ErrShardFailed surfacing through record fails
// the run) or on a follower slot (the ship must demote it). Wedged drives
// heal at the tick's end — replaced, suspended for the verified re-seed,
// resumed — so every failover is followed by redundancy restoration, and
// the next wedge can target the new primary.
func (s *soakSchedule) drive(dir string, shards, replicas int, policy string, tp *schedrt.Tape, seed uint64, parallel, armed bool) (*soakOutcome, error) {
	defer os.RemoveAll(dir)
	// One deterministic fault plan per drive: injectors follow the slot
	// directory, not the role, exactly as physical disks would.
	clocks := make([]*journal.VirtualClock, shards)
	rfss := make([][]*journal.FaultFS, shards)
	for i := range rfss {
		if s.clocks {
			clocks[i] = journal.NewVirtualClock()
		}
		rfss[i] = make([]*journal.FaultFS, replicas+1)
		for slot := range rfss[i] {
			rfss[i][slot] = journal.NewFaultFS(seed^uint64(i+1)*chaosShardSalt^uint64(slot)*chaosReplicaSalt, s.faults)
			if s.clocks {
				rfss[i][slot].SetClock(clocks[i])
			}
		}
	}
	opt := cluster.Options{
		Shards:    shards,
		Replicas:  replicas,
		Placement: policy,
		Store:     schedrt.StoreOptions{NoSync: true, Runtime: schedrt.Options{Governor: churnGovernor}},
		Inject:    func(si int) journal.Injector { return rfss[si][0] },
		InjectReplica: func(si, slot int) journal.Injector {
			return rfss[si][slot]
		},
		Retry: cluster.RetryOptions{
			MaxAttempts: 10,
			Seed:        seed,
			Sleep:       func(time.Duration) {}, // deterministic soaks spend no wall-clock
		},
	}
	if s.clocks {
		opt.Clock = func(si int) journal.Clock { return clocks[si] }
	}
	if armed {
		opt.LatencySLO = graySLO
		opt.AdmitDeadline = grayDeadline
		// Window 1: the p99 is this epoch's samples alone, so one browned
		// tick is detected at that tick's own sweep — and one promoted-
		// away tick is enough to read recovered.
		opt.LatencyWindow = 1
	}
	c, err := cluster.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	horizon := int64(32)
	if n := len(tp.Events); n > 0 {
		horizon += tp.Events[n-1].Epoch
	}
	out := &soakOutcome{expect: make(map[string]bool)}
	brown := make(map[int]soakBrown)
	record := func(ev schedrt.Event, res cluster.Result, err error) error {
		if err != nil {
			if schedrt.IsStaleRequest(err) {
				return nil
			}
			if armed && errors.Is(err, cluster.ErrShardSlow) {
				// Deadline shed: the router refused rather than blow the
				// deadline on a slow shard. A shed add was never admitted; a
				// shed remove leaves the task live — the model must agree
				// with the WAL on both.
				out.sheds++
				return nil
			}
			return fmt.Errorf("event at epoch %d: %w", ev.Epoch, err)
		}
		switch ev.Op {
		case "add":
			if res.Decision.Verdict != schedrt.Rejected {
				out.expect[ev.Task.Task.Name] = true
			}
		case "remove":
			delete(out.expect, ev.Name)
		}
		if b, ok := brown[res.Shard]; ok && b.slot == c.PrimarySlot(res.Shard) {
			out.misses++
		}
		return nil
	}
	i := 0
	// The tick counter is monotonic and independent of the cluster clock:
	// an evacuation drops the re-imaged shard to epoch 0 and the clock
	// re-levels through old values during catch-up — keying the torment on
	// the epoch would re-trigger the same wedge forever.
	for tick := 0; c.Epoch() < horizon; tick++ {
		out.ticks = tick + 1
		draw, victim := chaosDraw(seed, tick)
		si := min(int(victim*float64(shards)), shards-1)
		// wedged is this tick's dead drive, if any; it heals — and its
		// shard's followers re-seed — at the tick's end.
		var wedged *journal.FaultFS
		switch s.action(draw, shards, replicas) {
		case soakKill:
			// Crash-restart at a quiescent boundary: close, recover from
			// checkpoint + WAL replay, rebuild the mirror.
			if err := c.CrashShard(si); err != nil {
				return nil, fmt.Errorf("%s kill shard %d at tick %d: %w", s.name, si, tick, err)
			}
			out.kills++
		case soakWedgePrimary:
			// No FailShard, no evacuation — the tick's own events and
			// epoch run must drive the health machine through promotion,
			// and any shed (ErrShardFailed reaching record) fails the
			// soak. Zero-shed is the claim under test.
			wedged = rfss[si][c.PrimarySlot(si)]
			wedged.Wedge()
			out.wedges++
		case soakWedgeFollower:
			// The primary keeps acking. The victim is the first non-
			// primary slot, a pure function of the role state.
			slot := 0
			if slot == c.PrimarySlot(si) {
				slot = 1
			}
			wedged = rfss[si][slot]
			wedged.Wedge()
			out.fwedges++
		case soakEvacuate:
			// The source device's fault schedule is suspended for the
			// maintenance window (the operator verified the replacement
			// disk); target-shard and meta writes during the handoff stay
			// fully exposed to their own fault plans.
			level := c.Epoch()
			fss := rfss[si][0]
			fss.Wedge()
			c.FailShard(si, fmt.Sprintf("%s wedge at tick %d", s.name, tick))
			fss.Heal()
			fss.Suspend()
			rep, err := c.EvacuateShard(si)
			fss.Resume()
			if err != nil {
				return nil, fmt.Errorf("%s evacuate shard %d at tick %d: %w", s.name, si, tick, err)
			}
			// Walk the re-imaged shard (epoch 0) back to lockstep inside
			// the same tick: RunEpoch's min-rule advances only the
			// laggard, so this is pure empty-shard replay of the
			// survivors' clock. It cannot ride the outer loop — there the
			// cluster clock would re-level through ~level old values, and
			// any fresh evacuation draw during the walk resets it again.
			for c.Epoch() < level {
				if _, err := c.RunEpoch(parallel); err != nil {
					return nil, fmt.Errorf("%s catch-up shard %d at tick %d: %w", s.name, si, tick, err)
				}
			}
			out.evacs++
			out.migrated += rep.Migrated
			out.evicted += rep.Evicted
			for _, mv := range rep.Moves {
				if mv.Evicted {
					delete(out.expect, mv.Name)
				}
			}
		case soakBrownout:
			// The victim is the CURRENT primary slot's drive: after a
			// promotion the next draw grays the new primary, so the
			// failover path is re-exercised, not just re-confirmed.
			if b, ok := brown[si]; ok {
				rfss[si][b.slot].Brownout(0)
			}
			slot := c.PrimarySlot(si)
			rfss[si][slot].Brownout(grayDelay)
			brown[si] = soakBrown{slot: slot, until: tick + grayBrownTicks}
			out.brownouts++
		}

		// Route this tick's due events, exactly as PlayTape would. Events
		// are NOT pre-stamped with tape indices: the router assigns each
		// arrival the next global sequence. That keeps per-shard arrival
		// sequences monotone even after migration handoffs stamp fresh
		// (high) sequences onto target shards — the property the retry
		// dedup guard depends on. (PlayTape pre-stamps because it
		// re-delivers the tape across cluster reopens; this driver never
		// re-delivers.)
		start := i
		for epoch := c.Epoch(); i < len(tp.Events) && tp.Events[i].Epoch <= epoch; {
			i++
		}
		due := slices.Clone(tp.Events[start:i])
		if parallel {
			results, errs, err := c.ApplyBatch(due)
			if err != nil {
				return nil, err
			}
			for j := range due {
				if err := record(due[j], results[j], errs[j]); err != nil {
					return nil, err
				}
			}
		} else {
			for _, ev := range due {
				res, err := c.Apply(ev)
				if err := record(ev, res, err); err != nil {
					return nil, err
				}
			}
		}
		// The epoch run is where the latency sweep fires: each due shard's
		// tracker holds this tick's WAL sojourns (a browned drive delays
		// every op equally, so serial and parallel drives read the same p99
		// from different op counts), and a breach fences the shard and —
		// with replicas — promotes away from the browned primary.
		if _, err := c.RunEpoch(parallel); err != nil {
			return nil, err
		}

		// Tick-end maintenance: replaced drives come back, brownouts expire,
		// and every out-of-sync follower — the demoted old primary after a
		// failover, a ship-failed or wedged follower — is re-seeded. This
		// bounds the redundancy gap to within one tick: each wedge draw
		// happens against a fully in-sync follower set.
		if wedged != nil {
			wedged.Heal()
		}
		for si, b := range brown {
			if tick+1 >= b.until {
				rfss[si][b.slot].Brownout(0)
				delete(brown, si)
			}
		}
		for s2 := 0; replicas > 0 && s2 < shards; s2++ {
			if err := reseedSuspended(c, rfss[s2], s2); err != nil {
				return nil, fmt.Errorf("%s reseed shard %d at tick %d: %w", s.name, s2, tick, err)
			}
		}
		if (tick+1)%32 == 0 {
			if err := c.Checkpoint(); err != nil {
				return nil, err
			}
		}
	}

	if replicas > 0 {
		// End-of-run redundancy audit: a final checkpoint byte-verifies
		// every follower against its primary (the scrub demotes silent
		// divergence), then one re-seed pass restores anything the scrub
		// itself demoted — the checkpoint's own ships and re-seeds are still
		// fault-exposed, so a parting stall can legitimately demote. After
		// that pass, anything still out of sync is a containment failure,
		// not a data point.
		if err := c.Checkpoint(); err != nil {
			return nil, err
		}
		for si := 0; si < shards; si++ {
			if err := reseedSuspended(c, rfss[si], si); err != nil {
				return nil, fmt.Errorf("%s: final reseed shard %d: %w", s.name, si, err)
			}
			for _, ri := range c.Replicas(si) {
				if !ri.InSync {
					return nil, fmt.Errorf("%s: shard %d follower slot %d out of sync at end: %s",
						s.name, si, ri.Slot, ri.LastError)
				}
			}
		}
	}

	out.digests = c.Digests()
	out.owners = c.Owners()
	out.live = make(map[string]int)
	for _, sh := range c.Shards() {
		for _, sp := range sh.Store.Runtime().Tasks() {
			out.live[sp.Task.Name] = sh.ID
		}
	}
	out.metrics = c.Metrics()
	for _, h := range c.Healths() {
		out.promotions = append(out.promotions, h.Promotions)
		out.health.Reopens += h.Reopens
		out.health.TotalErrs += h.TotalErrs
		out.health.Promotions += h.Promotions
		out.health.ReplicaDemotions += h.ReplicaDemotions
		out.health.ReplicaReseeds += h.ReplicaReseeds
		out.health.SlowEvents += h.SlowEvents
	}
	return out, nil
}

// reseedSuspended re-seeds shard si's out-of-sync followers with their
// drives' fault schedules suspended (the operator verified the new disk;
// suspension freezes the drive's op counter, so the schedule is
// untouched).
func reseedSuspended(c *cluster.Cluster, fss []*journal.FaultFS, si int) error {
	var susp []*journal.FaultFS
	for _, ri := range c.Replicas(si) {
		if !ri.InSync {
			fss[ri.Slot].Suspend()
			susp = append(susp, fss[ri.Slot])
		}
	}
	if len(susp) == 0 {
		return nil
	}
	_, err := c.ReseedReplicas(si)
	for _, f := range susp {
		f.Resume()
	}
	return err
}

// sameOutcome holds the determinism claim: final bytes and owner map, plus
// the containment trace — per-shard promotion counts (promotion is a pure
// function of health state and replica high-water marks), deadline sheds
// and browned-window misses — must agree between drives.
func sameOutcome(a, b *soakOutcome) bool {
	return slices.Equal(a.digests, b.digests) && maps.Equal(a.owners, b.owners) &&
		slices.Equal(a.promotions, b.promotions) && a.sheds == b.sheds && a.misses == b.misses
}

// soakWidth is the audited verdict at one cluster width.
type soakWidth struct {
	shards, events int
	// a is the first serial drive; blindMisses is the blind control
	// drive's miss count (0 without a latency signal).
	a                     *soakOutcome
	blindMisses           int
	repeatMatch, parMatch bool
	lost, orphans         int
	digests               []string
}

// soakArgs are a soak's arguments, as ChaosSoak and GraySoak take them.
type soakArgs struct {
	cfg         Config
	dir         string
	events      int
	shardCounts []int
	policy      string
	replicas    int
}

// withDefaults fills unset arguments: 1200 events, the given widths,
// first-fit placement, no replicas.
func (p soakArgs) withDefaults(widths []int) soakArgs {
	p.cfg = p.cfg.withDefaults()
	if p.events <= 0 {
		p.events = 1200
	}
	if len(p.shardCounts) == 0 {
		p.shardCounts = widths
	}
	if p.policy == "" {
		p.policy = "first-fit"
	}
	p.replicas = max(p.replicas, 0)
	return p
}

// run plays one churn tape per width: serial, serial again and concurrent
// drives (plus a blind serial drive when the schedule has a latency
// signal), all three of which must agree exactly. A lost task, an orphan,
// a clean miss, a divergence, a replicated drain, a primary fault absorbed
// without promotion or an armed drive missing more deadlines than the
// blind one is an error, not a data point.
func (s *soakSchedule) run(p soakArgs) ([]soakWidth, error) {
	tp := GenerateChurnTape(p.cfg.Seed, p.events)
	var widths []soakWidth
	for _, shards := range p.shardCounts {
		var runs [3]*soakOutcome
		for r := range runs {
			mode := [...]string{"serial", "serial", "parallel"}[r]
			d := filepath.Join(p.dir, fmt.Sprintf("%s-%d-%s-%d", s.name, shards, mode, r))
			oc, err := s.drive(d, shards, p.replicas, p.policy, tp, p.cfg.Seed, r == 2, s.signal)
			if err != nil {
				return nil, fmt.Errorf("%s soak: %d shards (%s run %d): %w", s.name, shards, mode, r, err)
			}
			runs[r] = oc
		}
		a := runs[0]
		w := soakWidth{shards: shards, events: len(tp.Events), a: a,
			repeatMatch: sameOutcome(a, runs[1]), parMatch: sameOutcome(a, runs[2])}
		if s.signal {
			blind, err := s.drive(filepath.Join(p.dir, fmt.Sprintf("%s-%d-blind", s.name, shards)),
				shards, p.replicas, p.policy, tp, p.cfg.Seed, false, false)
			if err != nil {
				return nil, fmt.Errorf("%s soak: %d shards (blind run): %w", s.name, shards, err)
			}
			w.blindMisses = blind.misses
		}
		for _, d := range a.digests {
			w.digests = append(w.digests, fmt.Sprintf("%016x", d))
		}
		// Zero silently lost: the model set (admitted − removed − evicted)
		// must be exactly the live set, and the partition map must agree.
		for name := range a.expect {
			if _, ok := a.live[name]; !ok {
				w.lost++
			}
			if _, ok := a.owners[name]; !ok {
				w.lost++
			}
		}
		for name := range a.live {
			if !a.expect[name] {
				w.orphans++
			}
			if a.owners[name] != a.live[name] {
				w.orphans++
			}
		}

		var gate string
		switch replicated := p.replicas > 0; {
		case w.lost > 0:
			gate = fmt.Sprintf("%d task(s) silently lost", w.lost)
		case w.orphans > 0:
			gate = fmt.Sprintf("%d orphaned task(s)", w.orphans)
		case a.metrics.MissesClean > 0:
			gate = fmt.Sprintf("%d clean deadline miss(es)", a.metrics.MissesClean)
		case !w.repeatMatch:
			gate = "repeated serial drive diverged"
		case !w.parMatch:
			gate = "parallel drive diverged from serial"
		case replicated && a.evacs+a.evicted > 0:
			// Replicated failure handling never evacuates or evicts: a dead
			// drive is a failover, not a drain.
			gate = fmt.Sprintf("replicated run evacuated/evicted (%d/%d)", a.evacs, a.evicted)
		case replicated && a.wedges > 0 && a.health.Promotions == 0:
			gate = fmt.Sprintf("%d primary wedge(s) caused no promotion", a.wedges)
		case replicated && a.brownouts > 0 && a.health.Promotions == 0:
			gate = fmt.Sprintf("%d brownout(s) forced no promotion", a.brownouts)
		case w.blindMisses < a.misses:
			gate = fmt.Sprintf("latency signal made misses WORSE (%d armed vs %d blind)", a.misses, w.blindMisses)
		}
		if gate != "" {
			return nil, fmt.Errorf("%s soak: %d shards: %s", s.name, shards, gate)
		}
		widths = append(widths, w)
	}
	return widths, nil
}
