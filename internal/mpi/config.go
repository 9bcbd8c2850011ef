// Package mpi is the message-passing runtime the HydEE protocol stack runs
// on: an MPI-like communicator (ranks, tags, blocking and nonblocking
// point-to-point, collectives built over point-to-point) bound to one
// goroutine per simulated process, with cooperative checkpointing,
// fail-stop failure injection, restart-from-checkpoint, and a per-failure
// recovery-coordinator round, all accounted in virtual time.
package mpi

import (
	"errors"
	"fmt"
	"time"

	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/trace"
	"hydee/internal/vtime"
)

// Program is the code of one simulated MPI process. It must propagate
// errors from Comm operations: transport.ErrKilled unwinds the process when
// its cluster is rolled back.
type Program func(c *Comm) error

// Config describes one run.
type Config struct {
	// NP is the number of application processes.
	NP int
	// Model is the network cost model; nil defaults to
	// netmodel.Myrinet10G(), the paper's testbed. This is the one place a
	// nil model is defaulted: the Engine, the harness and the wire form
	// all leave it nil to get the same model.
	Model netmodel.Model
	// Topo is the process clustering; nil defaults to a single cluster.
	Topo *rollback.Topology
	// Protocol is the rollback-recovery protocol; nil defaults to the
	// native (no fault tolerance) baseline.
	Protocol rollback.Protocol
	// Store is the stable storage for checkpoints; nil defaults to an
	// in-memory store without a bandwidth model.
	Store checkpoint.Store
	// CheckpointEvery fires a coordinated checkpoint every k-th
	// cooperative Comm.Checkpoint() call; 0 disables checkpointing.
	CheckpointEvery int
	// CheckpointStagger offsets the checkpoint schedule per cluster to
	// avoid I/O bursts (experiment E5).
	CheckpointStagger bool
	// Failures is the fail-stop schedule; nil injects none.
	Failures *failure.Schedule
	// Recorder, when non-nil, records application-level events for the
	// property tests.
	Recorder *trace.Recorder
	// Observer, when non-nil, receives structured lifecycle events
	// (checkpoints, failures, recovery rounds, completion). Use
	// NewLogObserver for a debug stream comparable to the former
	// Config.Log writer.
	Observer Observer
	// MaxRounds caps recovery rounds as a runaway backstop; 0 derives it
	// from the failure schedule.
	MaxRounds int
	// Watchdog aborts the run if the supervisor sees no event for this
	// real duration (deadlock guard); 0 defaults to 60s.
	Watchdog time.Duration
}

func (cfg *Config) watchdog() time.Duration {
	if cfg.Watchdog > 0 {
		return cfg.Watchdog
	}
	return 60 * time.Second
}

// Validate reports whether the configuration is runnable without mutating
// it (defaults are applied to a copy).
func Validate(cfg Config) error { return cfg.normalize() }

func (cfg *Config) normalize() error {
	if cfg.NP <= 0 {
		return errors.New("mpi: NP must be positive")
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("mpi: CheckpointEvery must be >= 0, got %d", cfg.CheckpointEvery)
	}
	if cfg.MaxRounds < 0 {
		return fmt.Errorf("mpi: MaxRounds must be >= 0, got %d", cfg.MaxRounds)
	}
	if cfg.Watchdog < 0 {
		return fmt.Errorf("mpi: Watchdog must be >= 0, got %v", cfg.Watchdog)
	}
	if cfg.Model == nil {
		cfg.Model = netmodel.Myrinet10G()
	}
	if cfg.Topo == nil {
		cfg.Topo = rollback.SingleCluster(cfg.NP)
	}
	if err := cfg.Topo.Validate(); err != nil {
		return err
	}
	if cfg.Topo.NP != cfg.NP {
		return fmt.Errorf("mpi: topology covers %d ranks, config has %d", cfg.Topo.NP, cfg.NP)
	}
	if cfg.Protocol == nil {
		cfg.Protocol = rollback.Native()
	}
	if cfg.Failures != nil {
		if err := cfg.Failures.Validate(cfg.NP); err != nil {
			return err
		}
	}
	if cfg.Store == nil {
		cfg.Store = checkpoint.NewMemStore(0, 0)
	}
	if cfg.MaxRounds == 0 {
		if cfg.Failures != nil {
			cfg.MaxRounds = len(cfg.Failures.Events) + 2
		} else {
			cfg.MaxRounds = 2
		}
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// Makespan is the largest final virtual clock across processes.
	Makespan vtime.Time
	// PerRank aggregates protocol metrics per rank across incarnations.
	PerRank []rollback.Metrics
	// Totals sums PerRank.
	Totals rollback.Metrics
	// Results holds the per-rank values passed to Comm.SetResult by the
	// final incarnation.
	Results []any
	// Rounds lists the recovery rounds that ran.
	Rounds []rollback.RecoveryStats
	// StoreStats reports stable-storage activity.
	StoreStats checkpoint.StoreStats
	// PairBytes is the np*np row-major matrix of modeled application
	// payload bytes sent per ordered rank pair; the clustering tool
	// builds its communication graph from it.
	PairBytes []int64
	// PairMsgs is the matching message-count matrix.
	PairMsgs []int64
}
