// Cluster modes: with -shards N > 1 the durable tape and serve modes run
// a partition-aware router over N shard stores instead of one store. The
// contract is unchanged — same tape, same exit codes, same signal
// handling, same crash-only recovery — the state is just wider.
package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/signal"
	"syscall"

	"nprt/internal/cluster"
	schedrt "nprt/internal/runtime"
)

// clusterStoreOptions is the per-shard store template shared by both
// cluster modes — the same knobs runDurable/runServe hand OpenStore.
func clusterStoreOptions(fs flags, opts schedrt.Options, fsyncs *int) schedrt.StoreOptions {
	return schedrt.StoreOptions{
		Runtime:     opts,
		AfterSync:   crashHook(fs, fsyncs),
		CommitBatch: *fs.commitBatch,
		CommitDelay: *fs.commitDelay,
	}
}

func printClusterRecovery(fs flags, c *cluster.Cluster) {
	rec := c.Recovery()
	replayed := 0
	for _, sr := range rec.Shards {
		replayed += sr.ReplayedEvents + sr.ReplayedEpochs
	}
	if rec.Cursor == 0 && replayed == 0 && rec.ReplayedPlacements == 0 {
		return
	}
	fmt.Printf("restored:    %s at epoch %d (cursor %d, %d placements replayed, %d adopted, %d dropped)\n",
		*fs.dir, c.Epoch(), rec.Cursor, rec.ReplayedPlacements, rec.Adopted, rec.Dropped)
}

// clusterDigest folds the per-shard digests into one run identity, so the
// sweep's single digest line compares whole-cluster recoveries.
func clusterDigest(c *cluster.Cluster) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range c.Digests() {
		binary.BigEndian.PutUint64(buf[:], d)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func printClusterSummary(c *cluster.Cluster, horizon int64) {
	m := c.Metrics()
	fmt.Printf("shards:      %d (placement %s)\n", len(c.Shards()), c.Policy().Name())
	fmt.Printf("epochs:      %d (of horizon %d)\n", c.Epoch(), horizon)
	fmt.Printf("jobs:        %d, misses %d (%d in degraded windows)\n",
		m.Jobs, m.Misses, m.MissesDegraded)
	fmt.Printf("admission:   %d admitted (%d degraded), %d rejected, %d removed\n",
		m.Admits, m.AdmitsDegraded, m.Rejects, m.Removes)
	for _, sh := range c.Shards() {
		fmt.Printf("shard %03d:   %d tasks, digest %016x\n", sh.ID, sh.Resident(), sh.Store.Digest())
	}
	fmt.Printf("digest:      %016x\n", clusterDigest(c))
}

// runDurableCluster is runDurable at cluster width: the tape plays one
// epoch at a time (the signal boundary) through the serial router — the
// durable resume contract (skip exactly the journaled sequence prefix)
// holds only when events become durable in tape order. -shard-parallel
// opts into the concurrent group-commit drive for throughput runs that
// accept replay-from-checkpoint on interruption.
func runDurableCluster(fs flags) int {
	if *fs.tape == "" {
		fmt.Fprintln(os.Stderr, "impserve: -dir needs -tape (or -listen for the HTTP service)")
		return exitInvalidInput
	}
	if *fs.restore != "" || *fs.checkpoint != "" {
		fmt.Fprintln(os.Stderr, "impserve: -dir manages its own checkpoints; drop -restore/-checkpoint")
		return exitInvalidInput
	}
	tp, err := readTape(*fs.tape, *fs.strict)
	if err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInvalidInput
	}
	opts, code := runtimeOptions(fs)
	if code != exitOK {
		return code
	}

	fsyncs := 0
	c, err := cluster.Open(*fs.dir, cluster.Options{
		Shards:        *fs.shards,
		Replicas:      *fs.replicas,
		Placement:     *fs.placement,
		Store:         clusterStoreOptions(fs, opts, &fsyncs),
		LatencySLO:    *fs.latencySLO,
		AdmitDeadline: *fs.deadline,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "impserve: opening cluster %s: %v\n", *fs.dir, err)
		return exitInvalidInput
	}
	defer c.Close()
	printClusterRecovery(fs, c)

	horizon := tapeHorizon(fs, tp)
	jsonl, code := openJSONL(fs)
	if jsonl != nil {
		defer jsonl.Close()
	} else if code != exitOK {
		return code
	}

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)

	onEpoch := func(rep cluster.ShardEpoch) {
		if jsonl != nil {
			if err := json.NewEncoder(jsonl).Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, "impserve: epoch log:", err)
			}
		}
		if !*fs.quiet && rep.Report.ActionName != "" {
			fmt.Printf("epoch %d: shard %d governor %s (shed %v, window mean %.2f)\n",
				rep.Report.Epoch, rep.Shard, rep.Report.ActionName, rep.Report.Shed, rep.Report.WindowMean)
		}
	}
	onDecision := func(ev schedrt.Event, res cluster.Result) {
		if !*fs.quiet {
			fmt.Printf("epoch %d: shard %d: %s %s: %s%s\n",
				c.Epoch(), res.Shard, res.Decision.Op, res.Decision.Task,
				res.Decision.Verdict, reason(res.Decision))
		}
	}

	every := *fs.ckptEvery
	interrupted := false
	for c.Epoch() < horizon && !interrupted {
		select {
		case sig := <-stop:
			fmt.Fprintf(os.Stderr, "impserve: %v: state is durable at epoch %d\n", sig, c.Epoch())
			interrupted = true
			continue
		default:
		}
		err := c.PlayTape(tp, c.Epoch()+1, *fs.shardParallel, 0,
			onEpoch, onDecision, staleTolerant(fs, c.Epoch))
		if err != nil {
			fmt.Fprintln(os.Stderr, "impserve:", err)
			return exitInternal
		}
		if every > 0 && c.Epoch()%int64(every) == 0 {
			if err := c.Checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "impserve:", err)
				return exitInternal
			}
		}
		if rb := *fs.rebalanceEvery; rb > 0 && c.Epoch()%int64(rb) == 0 {
			moves, err := c.Rebalance(cluster.RebalanceOptions{})
			if err != nil {
				fmt.Fprintln(os.Stderr, "impserve: rebalance:", err)
				return exitInternal
			}
			for _, mv := range moves {
				if !*fs.quiet {
					fmt.Printf("epoch %d: rebalance: %s shard %d -> %d\n", c.Epoch(), mv.Name, mv.From, mv.To)
				}
			}
		}
	}

	if err := c.Checkpoint(); err != nil {
		fmt.Fprintln(os.Stderr, "impserve:", err)
		return exitInternal
	}
	printClusterSummary(c, horizon)
	fmt.Printf("fsyncs:      %d\n", fsyncs)
	if interrupted {
		return exitInterrupted
	}
	return exitOK
}

// runServeCluster is runServe at cluster width: each incarnation recovers
// the whole cluster and attaches the partition-aware server — every /admit
// routes through placement, /state aggregates the shards.
func runServeCluster(fs flags) int {
	listening := fmt.Sprintf(" (%d shards, placement %s)", *fs.shards, *fs.placement)
	return serveLoop(fs, listening, func(opts schedrt.Options, fsyncs *int) (*incarnation, error) {
		c, err := cluster.Open(*fs.dir, cluster.Options{
			Shards:        *fs.shards,
			Replicas:      *fs.replicas,
			Placement:     *fs.placement,
			Store:         clusterStoreOptions(fs, opts, fsyncs),
			RelaxedMeta:   true,
			LatencySLO:    *fs.latencySLO,
			AdmitDeadline: *fs.deadline,
		})
		if err != nil {
			return nil, err
		}
		printClusterRecovery(fs, c)
		srv := cluster.NewServer(cluster.ServeOptions{
			QueueDepth:      *fs.queue,
			EpochInterval:   *fs.epochEvery,
			CheckpointEvery: *fs.ckptEvery,
			CoDelTarget:     *fs.codelTarget,
			StuckOpAfter:    *fs.watchdog,
			Logf:            func(f string, a ...any) { fmt.Fprintf(os.Stderr, "impserve: "+f+"\n", a...) },
		})
		return &incarnation{
			plane:  srv,
			attach: func() { srv.Attach(c) },
			epoch:  c.Epoch,
			digest: func() uint64 { return clusterDigest(c) },
			close:  c.Close,
		}, nil
	})
}
