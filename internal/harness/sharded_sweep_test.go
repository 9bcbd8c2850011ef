package harness

// Determinism and behaviour of the E5-extension sharded-store sweep:
// the sweep output must be byte-reproducible run-to-run (the make
// determinism target runs these twice under -race), and cluster-placed
// shards must actually relieve the checkpoint I/O burst.

import (
	"context"
	"reflect"
	"testing"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/rollback"
)

// TestE5ShardedSweepReproducible runs the sharded burst sweep twice and
// requires byte-identical formatted output — makespans, queue backlogs
// and volumes included.
func TestE5ShardedSweepReproducible(t *testing.T) {
	k, err := apps.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	runOnce := func() string {
		rows, err := CheckpointBurstSharded(context.Background(), k, 16, 8, 4, assign, 4e9, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		return FormatE5(rows)
	}
	a, b := runOnce(), runOnce()
	if a != b {
		t.Errorf("sharded sweep output not byte-reproducible:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
	t.Logf("\n%s", a)
}

// TestE5ShardedRelievesBurst checks the headline claim of the extension:
// per-cluster shard placement cuts the worst write backlog versus one
// shared store, without the staggered schedule's skew.
func TestE5ShardedRelievesBurst(t *testing.T) {
	k, err := apps.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	rows, err := CheckpointBurstSharded(context.Background(), k, 16, 8, 4, assign, 4e9, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E5Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	shared, sharded := byName["hydee-shared"], byName["hydee-sharded:4"]
	if shared.MaxQueue == 0 {
		t.Fatal("shared store saw no burst; the scenario does not exercise contention")
	}
	if sharded.MaxQueue >= shared.MaxQueue {
		t.Errorf("sharded MaxQueue %v >= shared %v; per-cluster placement did not relieve the burst",
			sharded.MaxQueue, shared.MaxQueue)
	}
	if sharded.CkptBytes != shared.CkptBytes {
		t.Errorf("checkpoint volume differs: sharded %d vs shared %d bytes", sharded.CkptBytes, shared.CkptBytes)
	}
}

// TestShardedStoreRunReproducible runs a failure-and-recovery scenario
// over the sharded store twice and requires the documented stable
// observables — makespan, recovery rounds, store stats, digests — to be
// byte-identical. Two deliberate choices keep the scenario inside the
// determinism guarantee (both limitations are recorded in DESIGN.md
// "Concurrency and determinism" and ROADMAP.md):
//   - the trigger fires mid-iteration, a safe distance after the first
//     checkpoint wave: a failure landing while a scope peer's
//     bandwidth-delayed checkpoint write is still queued races the kill
//     against the save in real time, making the restored sequence
//     scheduling-dependent;
//   - traffic totals of the doomed incarnations (Totals/PairBytes) are
//     not compared: a rolled-back peer may meter a send or two more or
//     fewer depending on when the kill lands on its goroutine.
func TestShardedStoreRunReproducible(t *testing.T) {
	k, err := apps.Get("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := cgAssign(t)
	mkSpec := func() Spec {
		return Spec{
			Kernel: k, Params: apps.Params{NP: 16, Iters: 8},
			Proto: ProtoHydEE, Assign: assign, CheckpointEvery: 3,
			NewStore: func(topo *rollback.Topology) (checkpoint.Store, error) {
				return checkpoint.NewShardedStore(4, 4e9, 4e9, topo.Placement(4)), nil
			},
			Failures: failure.NewSchedule(failure.Event{
				Ranks: []int{8},
				When:  failure.Trigger{AfterSends: 44},
			}),
		}
	}
	a, err := Run(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("makespan not reproducible: %v vs %v", a.Makespan, b.Makespan)
	}
	if !reflect.DeepEqual(a.Rounds, b.Rounds) {
		t.Errorf("recovery stats not reproducible:\n  %+v\n  %+v", a.Rounds, b.Rounds)
	}
	if a.Store != b.Store {
		t.Errorf("store stats not reproducible: %+v vs %+v", a.Store, b.Store)
	}
	if !reflect.DeepEqual(a.Digests, b.Digests) {
		t.Errorf("digests not reproducible")
	}
	if len(a.Rounds) != 1 || a.Store.Loads == 0 {
		t.Fatalf("scenario drifted: rounds=%+v loads=%d; want one round restoring from the sharded store",
			a.Rounds, a.Store.Loads)
	}
}
