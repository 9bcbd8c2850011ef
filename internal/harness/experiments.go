package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hydee/internal/apps"
	"hydee/internal/checkpoint"
	"hydee/internal/failure"
	"hydee/internal/graph"
	"hydee/internal/mpi"
	"hydee/internal/netmodel"
	"hydee/internal/netpipe"
	"hydee/internal/rollback"
	"hydee/internal/vtime"
)

// ---------------------------------------------------------------------------
// T1 — Table I: application clustering.

// Table1Row reproduces one row of Table I.
type Table1Row struct {
	App string
	// K is the number of clusters the tool chose.
	K int
	// RollbackPct is the average percentage of processes that roll back
	// after a single uniformly-placed failure.
	RollbackPct float64
	// LoggedGB / TotalGB are whole-run volumes extrapolated to the
	// class-D iteration count.
	LoggedGB, TotalGB float64
	// LoggedPct is the logged fraction.
	LoggedPct float64
	// Assign is the clustering, reused by the other experiments.
	Assign []int
}

// Table1 traces each kernel's communication graph at np ranks and runs the
// clustering tool on it.
func Table1(np, traceIters int, opt graph.Options) ([]Table1Row, error) {
	return Table1Ctx(context.Background(), np, traceIters, opt, nil, 0)
}

// Table1Ctx is Table1 with a context, an explicit network model (nil =
// Myrinet10G) and a sweep parallelism (<= 0 = one worker per CPU). The six
// kernel traces are independent runs, so they execute through RunAll; the
// clustering itself is serial and deterministic, making the rows identical
// to the serial path at any parallelism.
func Table1Ctx(ctx context.Context, np, traceIters int, opt graph.Options, model netmodel.Model, parallelism int) ([]Table1Row, error) {
	kernels := apps.Registry()
	specs := make([]Spec, len(kernels))
	for i, k := range kernels {
		specs[i] = TraceSpec(k, apps.Params{NP: np, Iters: traceIters}, model)
	}
	sums, err := RunAll(ctx, specs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	rows := make([]Table1Row, 0, len(kernels))
	for i, k := range kernels {
		g := graph.FromPairBytes(np, sums[i].PairBytes)
		res := graph.Cluster(g, opt)
		scale := float64(k.ClassIters) / float64(traceIters)
		rows = append(rows, Table1Row{
			App:         k.Name,
			K:           res.K,
			RollbackPct: res.ExpRollback * 100,
			LoggedGB:    res.CutBytes * scale / 1e9,
			TotalGB:     res.TotalBytes * scale / 1e9,
			LoggedPct:   res.CutFrac * 100,
			Assign:      res.Assign,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// F5 — Figure 5: NetPIPE latency/bandwidth degradation.

// Fig5Row is one message size of Figure 5's two charts.
type Fig5Row struct {
	Bytes int
	// Native one-way latency (µs) and bandwidth (MB/s).
	NativeLatUs, NativeBW float64
	// Latency degradation in percent, reported negative like the paper's
	// "performance reduction" axis: -100*(L_hydee-L_native)/L_hydee.
	LatRedNoLogPct, LatRedLogPct float64
	// Bandwidth reduction in percent (negative when HydEE is slower).
	BWRedNoLogPct, BWRedLogPct float64
}

// Figure5 sweeps the ping-pong benchmark in the paper's three
// configurations over model, which netpipe requires: the figure is
// measured on a named network.
func Figure5(model netmodel.Model, sizes []int, reps int) ([]Fig5Row, error) {
	return Figure5Ctx(context.Background(), model, sizes, reps)
}

// Figure5Ctx is Figure5 with a context; the three sweep configurations
// (native, same-cluster HydEE, cross-cluster HydEE) run concurrently.
func Figure5Ctx(ctx context.Context, model netmodel.Model, sizes []int, reps int) ([]Fig5Row, error) {
	configs := []netpipe.Config{
		{Model: model, Sizes: sizes, Reps: reps},
		{Model: model, Sizes: sizes, Reps: reps, Protocol: hydeeProtocol(), SameCluster: true},
		{Model: model, Sizes: sizes, Reps: reps, Protocol: hydeeProtocol(), SameCluster: false},
	}
	sweepCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sweeps := make([][]netpipe.Point, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, cfg netpipe.Config) {
			defer wg.Done()
			sweeps[i], errs[i] = netpipe.RunCtx(sweepCtx, cfg)
			if errs[i] != nil {
				cancel() // don't let sibling sweeps run to completion
			}
		}(i, cfg)
	}
	wg.Wait()
	// Prefer the real failure over the sibling cancellations it caused.
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, mpi.ErrCanceled) {
			return nil, err
		}
		if fallback == nil {
			fallback = err
		}
	}
	if fallback != nil {
		return nil, fallback
	}
	native, noLog, withLog := sweeps[0], sweeps[1], sweeps[2]
	if len(noLog) != len(native) || len(withLog) != len(native) {
		return nil, fmt.Errorf("figure5: sweep lengths differ")
	}
	rows := make([]Fig5Row, len(native))
	for i := range native {
		n, a, b := native[i], noLog[i], withLog[i]
		rows[i] = Fig5Row{
			Bytes:          n.Bytes,
			NativeLatUs:    n.LatencyUs,
			NativeBW:       n.BandwidthMBps,
			LatRedNoLogPct: -100 * (a.LatencyUs - n.LatencyUs) / a.LatencyUs,
			LatRedLogPct:   -100 * (b.LatencyUs - n.LatencyUs) / b.LatencyUs,
			BWRedNoLogPct:  -100 * (n.BandwidthMBps - a.BandwidthMBps) / n.BandwidthMBps,
			BWRedLogPct:    -100 * (n.BandwidthMBps - b.BandwidthMBps) / n.BandwidthMBps,
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// F6 — Figure 6: NAS failure-free overhead.

// Fig6Row is one benchmark bar group of Figure 6.
type Fig6Row struct {
	App string
	// Normalized execution times (native = 1.0).
	MLogNorm, HydEENorm float64
	// Overheads in percent.
	MLogPct, HydEEPct float64
	// HydEELoggedPct is the fraction of bytes HydEE logged.
	HydEELoggedPct float64
	NativeTime     vtime.Time
}

// Figure6 runs each kernel under native, full message logging, and HydEE
// with the given clusterings, failure-free, and reports normalized times.
func Figure6(np, iters int, clusterings map[string][]int) ([]Fig6Row, error) {
	return Figure6Ctx(context.Background(), np, iters, clusterings, nil, ProtoMLog, 0)
}

// Figure6Ctx is Figure6 with a context, an explicit network model (nil =
// Myrinet10G), a configurable comparator protocol for the middle bar
// (ProtoMLog reproduces the paper), and a sweep parallelism (<= 0 = one
// worker per CPU). The 3*|kernels| runs are independent and execute
// through RunAll.
func Figure6Ctx(ctx context.Context, np, iters int, clusterings map[string][]int, model netmodel.Model, comparator Proto, parallelism int) ([]Fig6Row, error) {
	kernels := apps.Registry()
	specs := make([]Spec, 0, 3*len(kernels))
	for _, k := range kernels {
		assign, ok := clusterings[k.Name]
		if !ok {
			return nil, fmt.Errorf("figure6: no clustering for %s", k.Name)
		}
		params := apps.Params{NP: np, Iters: iters}
		specs = append(specs,
			Spec{Kernel: k, Params: params, Proto: ProtoNative, Model: model},
			Spec{Kernel: k, Params: params, Proto: comparator, Assign: assign, Model: model},
			Spec{Kernel: k, Params: params, Proto: ProtoHydEE, Assign: assign, Model: model},
		)
	}
	sums, err := RunAll(ctx, specs, parallelism)
	if err != nil {
		return nil, fmt.Errorf("figure6: %w", err)
	}
	rows := make([]Fig6Row, 0, len(kernels))
	for i, k := range kernels {
		nat, cmp, hyd := sums[3*i], sums[3*i+1], sums[3*i+2]
		if err := SameDigests(nat, hyd); err != nil {
			return nil, fmt.Errorf("figure6: %s: hydee diverged from native: %w", k.Name, err)
		}
		base := float64(nat.Makespan)
		rows = append(rows, Fig6Row{
			App:            k.Name,
			MLogNorm:       float64(cmp.Makespan) / base,
			HydEENorm:      float64(hyd.Makespan) / base,
			MLogPct:        (float64(cmp.Makespan)/base - 1) * 100,
			HydEEPct:       (float64(hyd.Makespan)/base - 1) * 100,
			HydEELoggedPct: hyd.LoggedFrac * 100,
			NativeTime:     nat.Makespan,
		})
	}
	return rows, nil
}

// Clusterings runs the clustering tool for every kernel and returns the
// assignments keyed by kernel name (shared by Figure6 and E4).
func Clusterings(np, traceIters int, opt graph.Options) (map[string][]int, []Table1Row, error) {
	rows, err := Table1(np, traceIters, opt)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string][]int, len(rows))
	for _, r := range rows {
		m[r.App] = r.Assign
	}
	return m, rows, nil
}

// ---------------------------------------------------------------------------
// E4 — failure containment.

// E4Row compares the protocols' failure behaviour on one kernel.
type E4Row struct {
	App   string
	Proto string
	// RolledBackPct is the share of processes forced to roll back.
	RolledBackPct float64
	// RecoveryVT is the recovery-coordination time of the round.
	RecoveryVT vtime.Duration
	// MakespanVT is the total run time with the failure.
	MakespanVT vtime.Time
	// OverheadPct is the makespan increase over the same protocol's
	// failure-free run.
	OverheadPct float64
	// LoggedFrac is the protocol's logged-byte fraction.
	LoggedFrac float64
}

// Containment injects one failure into the kernel under each
// fault-tolerant protocol and measures how far it spreads. Results are
// also validated against the failure-free digests.
func Containment(k apps.Kernel, np, iters, ckptEvery int, assign []int, failAfterCkpts int) ([]E4Row, error) {
	return ContainmentCtx(context.Background(), k, np, iters, ckptEvery, assign,
		failure.Trigger{AfterCheckpoints: failAfterCkpts}, nil, nil)
}

// ContainmentCtx is Containment with a context, an arbitrary failure
// trigger for the victim (rank np/2) — an AtVT trigger injects at a
// virtual time, including mid-checkpoint-wave — an explicit network
// model (nil = Myrinet10G) and an explicit checkpoint-store constructor
// (Spec.NewStore: nil = a fresh free in-memory store per run; the
// constructor sees each run's topology so sharded stores can place
// clusters).
func ContainmentCtx(ctx context.Context, k apps.Kernel, np, iters, ckptEvery int, assign []int, failWhen failure.Trigger, model netmodel.Model, newStore func(*rollback.Topology) (checkpoint.Store, error)) ([]E4Row, error) {
	var rows []E4Row
	sched := func() *failure.Schedule {
		return failure.NewSchedule(failure.Event{
			Ranks: []int{np / 2},
			When:  failWhen,
		})
	}
	for _, proto := range []Proto{ProtoCoord, ProtoMLog, ProtoHydEE} {
		params := apps.Params{NP: np, Iters: iters}
		base := Spec{Kernel: k, Params: params, Proto: proto, Assign: assign, CheckpointEvery: ckptEvery, Model: model, NewStore: newStore}
		clean, err := RunCtx(ctx, base)
		if err != nil {
			return nil, fmt.Errorf("e4: %s/%s clean: %w", k.Name, proto, err)
		}
		withFail := base
		withFail.Failures = sched()
		failed, err := RunCtx(ctx, withFail)
		if err != nil {
			return nil, fmt.Errorf("e4: %s/%s failed: %w", k.Name, proto, err)
		}
		if err := SameDigests(clean, failed); err != nil {
			return nil, fmt.Errorf("e4: %s/%s: recovered run diverged: %w", k.Name, proto, err)
		}
		if len(failed.Rounds) != 1 {
			return nil, fmt.Errorf("e4: %s/%s: expected 1 recovery round, got %d", k.Name, proto, len(failed.Rounds))
		}
		rd := failed.Rounds[0]
		rows = append(rows, E4Row{
			App:           k.Name,
			Proto:         proto.String(),
			RolledBackPct: 100 * float64(rd.RolledBack) / float64(np),
			RecoveryVT:    rd.EndVT.Sub(rd.StartVT),
			MakespanVT:    failed.Makespan,
			OverheadPct:   (float64(failed.Makespan)/float64(clean.Makespan) - 1) * 100,
			LoggedFrac:    failed.LoggedFrac,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E5 — checkpoint I/O bursts.

// E5Row compares simultaneous vs staggered checkpointing under a shared
// stable-storage bandwidth.
type E5Row struct {
	Config string
	// MaxQueue is the worst virtual-time backlog a checkpoint write saw.
	MaxQueue vtime.Duration
	// Makespan is the run time.
	Makespan vtime.Time
	// CkptBytes is the volume written.
	CkptBytes int64
}

// sharedStore builds one in-memory store of bps bytes/second per run,
// shared by every cluster.
func sharedStore(bps float64) func(*rollback.Topology) (checkpoint.Store, error) {
	return func(*rollback.Topology) (checkpoint.Store, error) {
		return checkpoint.NewMemStore(bps, bps), nil
	}
}

// CheckpointBurst runs the kernel with all clusters checkpointing at once
// (coordinated baseline) and with HydEE's per-cluster staggered schedule,
// under a shared store of storeBPS bytes/second.
func CheckpointBurst(k apps.Kernel, np, iters, ckptEvery int, assign []int, storeBPS float64) ([]E5Row, error) {
	var rows []E5Row
	cases := []struct {
		name    string
		proto   Proto
		stagger bool
	}{
		{"coord-simultaneous", ProtoCoord, false},
		{"hydee-simultaneous", ProtoHydEE, false},
		{"hydee-staggered", ProtoHydEE, true},
	}
	for _, cs := range cases {
		sum, err := Run(Spec{
			Kernel: k, Params: apps.Params{NP: np, Iters: iters},
			Proto: cs.proto, Assign: assign,
			CheckpointEvery: ckptEvery, Stagger: cs.stagger,
			NewStore: sharedStore(storeBPS),
		})
		if err != nil {
			return nil, fmt.Errorf("e5: %s: %w", cs.name, err)
		}
		rows = append(rows, E5Row{
			Config:    cs.name,
			MaxQueue:  sum.Store.MaxQueue,
			Makespan:  sum.Makespan,
			CkptBytes: sum.Totals.CkptBytes,
		})
	}
	return rows, nil
}

// CheckpointBurstSharded extends E5 to sharded stable storage: the
// kernel runs under HydEE with everything checkpointing simultaneously
// into (a) one shared store of storeBPS bytes/second, (b) the same store
// with HydEE's staggered schedule, and (c) a sharded store of `shards`
// cluster-placed shards of storeBPS each. Sharding attacks the I/O burst
// spatially (independent storage targets) where staggering attacks it
// temporally (skewed schedules); the sharded MaxQueue backlog should
// drop toward the staggered one with no schedule skew at all. model
// selects the network (nil = Myrinet10G, like the other sweeps).
func CheckpointBurstSharded(ctx context.Context, k apps.Kernel, np, iters, ckptEvery int, assign []int, storeBPS float64, shards int, model netmodel.Model) ([]E5Row, error) {
	if shards < 2 {
		return nil, fmt.Errorf("e5-sharded: need at least 2 shards, got %d", shards)
	}
	sharded := func(topo *rollback.Topology) (checkpoint.Store, error) {
		return checkpoint.NewShardedStore(shards, storeBPS, storeBPS, topo.Placement(shards)), nil
	}
	cases := []struct {
		name     string
		stagger  bool
		newStore func(*rollback.Topology) (checkpoint.Store, error)
	}{
		{"hydee-shared", false, sharedStore(storeBPS)},
		{"hydee-staggered", true, sharedStore(storeBPS)},
		{fmt.Sprintf("hydee-sharded:%d", shards), false, sharded},
	}
	var rows []E5Row
	for _, cs := range cases {
		sum, err := RunCtx(ctx, Spec{
			Kernel: k, Params: apps.Params{NP: np, Iters: iters},
			Proto: ProtoHydEE, Assign: assign, Model: model,
			CheckpointEvery: ckptEvery, Stagger: cs.stagger,
			NewStore: cs.newStore,
		})
		if err != nil {
			return nil, fmt.Errorf("e5-sharded: %s: %w", cs.name, err)
		}
		rows = append(rows, E5Row{
			Config:    cs.name,
			MaxQueue:  sum.Store.MaxQueue,
			Makespan:  sum.Makespan,
			CkptBytes: sum.Totals.CkptBytes,
		})
	}
	return rows, nil
}
