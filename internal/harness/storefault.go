package harness

import (
	"context"
	"errors"
	"fmt"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// ---------------------------------------------------------------------------
// E6 — checkpoint-store redundancy under shard loss.
//
// The paper assumes checkpoints survive on stable storage; E6 drops that
// assumption and measures what each storage layout buys when storage
// itself fails at the worst possible moment — during recovery, after a
// rank failure has already committed the run to restoring from the
// store. For every layout the sweep runs the same kernel three times:
// failure-free (the cost baseline), with one rank failure on healthy
// storage (to learn the recovery round's deterministic start time), and
// with the same rank failure plus shard kills scheduled one virtual-time
// unit into the recovery round — after the last pre-failure checkpoint
// write, before the first restore read. A layout either survives (its
// restored run must match the failure-free digests bit-for-bit) or
// aborts with the typed mpi.ErrCheckpointLost.

// E6Row is one storage layout's outcome under recovery-time shard loss.
type E6Row struct {
	// Config names the layout ("shared", "sharded:6", "ec:4+2",
	// "replica:3").
	Config string
	// Shards is the layout's physical storage-target count.
	Shards int
	// Lost is how many of those targets were killed during recovery.
	Lost int
	// Survived reports whether the run still recovered (digest-checked
	// against the failure-free run).
	Survived bool
	// CleanVT is the failure-free makespan, FaultVT the makespan with
	// the rank failure plus shard loss (zero when the run aborted).
	CleanVT, FaultVT vtime.Time
	// OverheadPct is FaultVT over CleanVT, in percent (zero on abort).
	OverheadPct float64
	// PhysBytes is the physical checkpoint volume of the clean run —
	// the price of the layout's redundancy (r× for replica, (k+m)/k×
	// for ec).
	PhysBytes int64
	// DegradedLoads counts restore reads that had to route around lost
	// shards (extra fragment probes for ec, replica failovers).
	DegradedLoads int64
}

// degradedCounter is implemented by the redundant stores (ECStore,
// ReplicatedStore); plain layouts report zero degraded loads.
type degradedCounter interface{ DegradedLoads() int64 }

// shardCounter is implemented by every composite store.
type shardCounter interface{ NumShards() int }

// e6Config is one storage layout of the sweep.
type e6Config struct {
	name string
	// lose is how many shards the faulted run kills.
	lose int
	// mk builds a fresh healthy store for one run, placing clusters
	// like the run harness does (Topology.Placement).
	mk func(topo *rollback.Topology, bps float64) (checkpoint.Store, error)
}

// e6Configs are the four layouts E6 compares, at equal per-target
// bandwidth: one shared store, six plain shards, a 4+2 erasure code
// (six targets, any two expendable) and three full replicas. The
// redundant layouts lose two targets; the shared store has only one to
// lose.
func e6Configs() []e6Config {
	return []e6Config{
		{name: "shared", lose: 1, mk: func(_ *rollback.Topology, bps float64) (checkpoint.Store, error) {
			return checkpoint.NewMemStore(bps, bps), nil
		}},
		{name: "sharded:6", lose: 2, mk: func(topo *rollback.Topology, bps float64) (checkpoint.Store, error) {
			return checkpoint.NewShardedStore(6, bps, bps, topo.Placement(6)), nil
		}},
		{name: "ec:4+2", lose: 2, mk: func(topo *rollback.Topology, bps float64) (checkpoint.Store, error) {
			return checkpoint.NewECStore(4, 2, bps, bps, topo.Placement(6))
		}},
		{name: "replica:3", lose: 2, mk: func(topo *rollback.Topology, bps float64) (checkpoint.Store, error) {
			return checkpoint.NewReplicatedStore(3, bps, bps, topo.Placement(3))
		}},
	}
}

// StoreFaultSweep runs the E6 shard-loss comparison: the kernel under
// HydEE with a checkpoint schedule, one rank failure (rank np/2 after
// its second checkpoint), and per storage layout a kill of the victim
// cluster's storage targets scheduled inside the recovery round. Every
// surviving run is digest-checked against the layout's failure-free
// run; every aborting run must fail with mpi.ErrCheckpointLost.
func StoreFaultSweep(ctx context.Context, k apps.Kernel, np, iters, ckptEvery int, assign []int, storeBPS float64) ([]E6Row, error) {
	victim := np / 2
	fail := func() *failure.Schedule {
		return failure.NewSchedule(failure.Event{
			Ranks: []int{victim},
			When:  failure.Trigger{AfterCheckpoints: 2},
		})
	}
	var rows []E6Row
	for _, cfg := range e6Configs() {
		base := Spec{
			Kernel: k, Params: apps.Params{NP: np, Iters: iters},
			Proto: ProtoHydEE, Assign: assign, Model: netmodel.Myrinet10G(),
			CheckpointEvery: ckptEvery,
		}
		mkSpec := func(newStore func(*rollback.Topology) (checkpoint.Store, error), failures *failure.Schedule) Spec {
			s := base
			s.NewStore, s.Failures = newStore, failures
			return s
		}
		// healthy builds a fresh, unfaulted store of the layout per run.
		healthy := func(topo *rollback.Topology) (checkpoint.Store, error) { return cfg.mk(topo, storeBPS) }
		topo := rollback.NewTopology(assign)

		// 1. Failure-free baseline: clean makespan, digests, and the
		// layout's physical storage bill.
		clean, err := RunCtx(ctx, mkSpec(healthy, nil))
		if err != nil {
			return nil, fmt.Errorf("e6: %s clean: %w", cfg.name, err)
		}

		// 2. Probe: the same rank failure on healthy storage pins down
		// the recovery round's start in virtual time (deterministic, so
		// it transfers to the faulted run below).
		probe, err := RunCtx(ctx, mkSpec(healthy, fail()))
		if err != nil {
			return nil, fmt.Errorf("e6: %s probe: %w", cfg.name, err)
		}
		if err := SameDigests(clean, probe); err != nil {
			return nil, fmt.Errorf("e6: %s probe diverged: %w", cfg.name, err)
		}
		if len(probe.Rounds) != 1 {
			return nil, fmt.Errorf("e6: %s probe: expected 1 recovery round, got %d", cfg.name, len(probe.Rounds))
		}
		// One VT unit into the round: after every pre-failure
		// checkpoint write was issued, before the restore reads (which
		// go out a network hop after detection).
		faultVT := probe.Rounds[0].StartVT.Add(1)

		// 3. The same run with the victim cluster's storage targets
		// killed mid-recovery.
		store, err := cfg.mk(topo, storeBPS)
		if err != nil {
			return nil, fmt.Errorf("e6: %s: %w", cfg.name, err)
		}
		n := 1
		if sc, ok := store.(shardCounter); ok {
			n = sc.NumShards()
		}
		lost := cfg.lose
		if lost > n {
			lost = n
		}
		faults := make([]checkpoint.ShardFault, lost)
		for i := range faults {
			faults[i] = checkpoint.ShardFault{
				Shard: (topo.Placement(n)(victim) + i) % n,
				AtVT:  faultVT,
				Kind:  checkpoint.FaultKill,
			}
		}
		faulty, err := checkpoint.NewFaultyStore(store, faults...)
		if err != nil {
			return nil, fmt.Errorf("e6: %s: %w", cfg.name, err)
		}
		row := E6Row{
			Config:    cfg.name,
			Shards:    n,
			Lost:      lost,
			CleanVT:   clean.Makespan,
			PhysBytes: clean.Store.SavedBytes,
		}
		faulted, err := RunCtx(ctx, mkSpec(func(*rollback.Topology) (checkpoint.Store, error) { return faulty, nil }, fail()))
		switch {
		case err == nil:
			if err := SameDigests(clean, faulted); err != nil {
				return nil, fmt.Errorf("e6: %s survived shard loss but diverged: %w", cfg.name, err)
			}
			row.Survived = true
			row.FaultVT = faulted.Makespan
			row.OverheadPct = (float64(faulted.Makespan)/float64(clean.Makespan) - 1) * 100
			if dc, ok := store.(degradedCounter); ok {
				row.DegradedLoads = dc.DegradedLoads()
			}
		case errors.Is(err, mpi.ErrCheckpointLost):
			// The layout could not cover the loss; the run aborted
			// with the typed error instead of computing on from a
			// damaged state.
		default:
			return nil, fmt.Errorf("e6: %s faulted run failed unexpectedly: %w", cfg.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
