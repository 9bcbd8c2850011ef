package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"time"

	"hydee"
)

// defaultSeed is the seed the pinned virtual-time values belong to;
// heldOutSeed is reserved for re-checking a performance claim on a seed
// that was not used while the claim was written.
const (
	defaultSeed = 2
	heldOutSeed = 7
)

// setupReps is how many times a measuring run repeats set-up, so setup_s
// is a median; the first set-up's iteration is the one measured.
const setupReps = 5

// workload is one named benchmark input. setup builds everything a timed
// iteration needs — failure-free reference digests, clusterings, the
// seed-chosen failure schedule — and returns the iteration itself.
type workload struct {
	name string
	// graphInSetup marks workloads whose clustering tool and harness
	// calls happen in set-up, so the traced run reports graph.* and
	// harness.* from its traced set-up.
	graphInSetup bool
	setup        func(ctx context.Context, seed int64, tr *tracer) (iterFunc, error)
}

// iterFunc runs one timed iteration; tr is nil when tracing is off.
type iterFunc func(ctx context.Context, tr *tracer) iteration

// iteration is what one timed iteration produced.
type iteration struct {
	wall time.Duration
	runs []outcome
}

// msgs is the iteration's delivered-message count: application
// deliveries plus control messages over all its simulated runs.
func (it iteration) msgs() int64 {
	var n int64
	for _, o := range it.runs {
		n += o.totals.AppDelivers + o.totals.CtlMsgs
	}
	return n
}

// runRecord is the virtual-time outcome of one simulated run. Every field
// is a pure function of the workload and seed: repeats must reproduce it
// exactly, and a change that moves it is a bug, not a speed-up.
type runRecord struct {
	Name        string `json:"name"`
	MakespanNS  int64  `json:"makespan_vt_ns"`
	Rounds      int    `json:"rounds"`
	RolledBack  int    `json:"rolled_back"`
	Orphans     int    `json:"orphans"`
	AppDelivers int64  `json:"app_delivers"`
	CtlMsgs     int64  `json:"ctl_msgs"`
	LoggedMsgs  int64  `json:"logged_msgs"`
	Saves       int64  `json:"saves"`
	// Digest fingerprints the per-rank results.
	Digest string `json:"digest"`
}

// outcome is one simulated run as the checks see it.
type outcome struct {
	rec     runRecord
	digests []any
	// ref is the failure-free reference the digests must equal; nil
	// when the run has none (its digest is still pinned through rec).
	ref []any
	// scope is the number of ranks the protocol's restart scope says the
	// injected failures roll back; 0 for failure-free runs.
	scope    int
	err      error
	totals   hydee.Metrics
	store    hydee.StoreStats
	degraded int64
}

func newOutcome(name string, res *hydee.Result, err error) outcome {
	o := outcome{rec: runRecord{Name: name}, err: err}
	if err != nil {
		return o
	}
	o.fill(res.Makespan, res.Rounds, res.Totals, res.StoreStats, res.Results)
	return o
}

func summaryOutcome(name string, sum *hydee.ExperimentSummary, err error) outcome {
	o := outcome{rec: runRecord{Name: name}, err: err}
	if err != nil {
		return o
	}
	o.fill(sum.Makespan, sum.Rounds, sum.Totals, sum.Store, sum.Digests)
	return o
}

func (o *outcome) fill(makespan hydee.Time, rounds []hydee.RecoveryStats, totals hydee.Metrics, st hydee.StoreStats, digests []any) {
	o.rec.MakespanNS = int64(makespan)
	o.rec.Rounds = len(rounds)
	for _, r := range rounds {
		o.rec.RolledBack += r.RolledBack
		o.rec.Orphans += r.Orphans
	}
	o.rec.AppDelivers = totals.AppDelivers
	o.rec.CtlMsgs = totals.CtlMsgs
	o.rec.LoggedMsgs = totals.LoggedMsgs
	o.rec.Saves = st.Saves
	h := fnv.New64a()
	fmt.Fprint(h, digests...)
	o.rec.Digest = fmt.Sprintf("%016x", h.Sum64())
	o.digests, o.totals, o.store = digests, totals, st
}

// check reports why a run fails, or "" when it passes: it must finish
// without error, reproduce the failure-free digests, roll back exactly
// the protocol's restart scope, and repeat the baseline record.
func check(o outcome, base *runRecord) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.ref != nil && !reflect.DeepEqual(o.digests, o.ref):
		return "digests differ from the failure-free reference"
	case o.rec.RolledBack != o.scope:
		return fmt.Sprintf("rolled back %d ranks, restart scope has %d", o.rec.RolledBack, o.scope)
	case base == nil:
		return "no baseline record for " + o.rec.Name
	case o.rec != *base:
		return fmt.Sprintf("virtual-time results drifted: got %+v, want %+v", o.rec, *base)
	}
	return ""
}

// splitmix derives independent, seed-determined choices.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick chooses a value in [0, n) from the seed; salt separates choices.
func pick(seed int64, salt uint64, n int) int {
	return int(splitmix(uint64(seed)^splitmix(salt)) % uint64(n))
}

// simRun runs prog under HydEE with the given options and store. With a
// tracer, the protocol, store, program and observer are wrapped.
func simRun(ctx context.Context, tr *tracer, np int, opts []hydee.Option, prog hydee.Program, st hydee.Store) (*hydee.Result, error) {
	proto := hydee.HydEE()
	if tr != nil {
		run := tr.newRun(np)
		proto = run.protocol(proto)
		st = run.store(st)
		prog = run.program(prog)
		opts = append(slices.Clip(opts), hydee.WithObserver(tr.obs))
	}
	eng, err := hydee.New(append(slices.Clip(opts), hydee.WithProtocol(proto), hydee.WithStore(st))...)
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx, prog)
}

// traceBatch prepares one batch of harness specs for a traced iteration:
// every spec's rank programs are wrapped, and the returned context
// carries the tracer's observer tagged with b, so the batch's runs can be
// told apart in the per-layer metrics. Without a tracer it returns its
// arguments unchanged.
func traceBatch(ctx context.Context, tr *tracer, b batch, specs []hydee.ExperimentSpec) (context.Context, []hydee.ExperimentSpec) {
	if tr == nil {
		return ctx, specs
	}
	out := slices.Clone(specs)
	for i := range out {
		run := tr.newRun(out[i].Params.NP)
		run.ownLanes = true
		mk := out[i].Kernel.Make
		out[i].Kernel.Make = func(p hydee.KernelParams) (hydee.Program, error) {
			prog, err := mk(p)
			if err != nil {
				return nil, err
			}
			return run.program(prog), nil
		}
	}
	return hydee.ContextWithObserver(ctx, tr.obs.tagged(b)), out
}

// cluster runs the clustering tool, as a span on lane l when tracing.
func cluster(tr *tracer, l *lane, g *hydee.CommGraph) hydee.ClusterResult {
	if tr == nil {
		return hydee.Cluster(g, hydee.DefaultClusterOptions())
	}
	i := l.begin(kCluster, tr.now())
	res := hydee.Cluster(g, hydee.DefaultClusterOptions())
	l.end(i, tr.now())
	return res
}

// haloWorkload is StencilProgram(steps, 256) at np ranks in clusters of
// clusterSize, checkpointing every 2 steps, one seed-chosen rank failing
// after the first checkpoint (HydEE, in-memory store, Myrinet 10G).
func haloWorkload(name string, np, clusterSize, steps int) workload {
	return workload{name: name, setup: func(ctx context.Context, seed int64, _ *tracer) (iterFunc, error) {
		assign := make([]int, np)
		for r := range assign {
			assign[r] = r / clusterSize
		}
		topo := hydee.NewTopology(assign)
		prog := hydee.StencilProgram(steps, 256)
		base := []hydee.Option{
			hydee.WithTopology(topo), hydee.WithModel(hydee.Myrinet10G()), hydee.WithCheckpointEvery(2),
		}
		ref, err := simRun(ctx, nil, np, base, prog, hydee.NewMemStore(0, 0))
		if err != nil {
			return nil, fmt.Errorf("%s: failure-free reference: %w", name, err)
		}
		victims := []int{pick(seed, 1, np)}
		scope := len(hydee.HydEE().RestartScope(topo, victims))
		opts := append(slices.Clip(base), hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: victims, When: hydee.FailureTrigger{AfterCheckpoints: 1},
		}))
		return func(ctx context.Context, tr *tracer) iteration {
			start := time.Now()
			res, err := simRun(ctx, tr, np, opts, prog, hydee.NewMemStore(0, 0))
			wall := time.Since(start)
			o := newOutcome("stencil/hydee", res, err)
			o.ref, o.scope = ref.Results, scope
			return iteration{wall: wall, runs: []outcome{o}}
		}, nil
	}}
}

// ecData and ecParity are the k+m geometry of the ft workload's
// erasure-coded store.
const ecData, ecParity = 4, 2

// ftWorkload is FT at np ranks clustered by the tool, iters iterations
// with a checkpoint each, saved to an ec:4+2 store at 4e9 B/s per shard
// with one seed-chosen shard killed from VT 1; one seed-chosen rank
// fails after iters/2 checkpoints.
func ftWorkload(name string, np, iters int) workload {
	return workload{name: name, graphInSetup: true, setup: func(ctx context.Context, seed int64, tr *tracer) (iterFunc, error) {
		k, err := hydee.KernelByName("ft")
		if err != nil {
			return nil, err
		}
		var l *lane
		if tr != nil {
			l = tr.newLane(0, -1)
		}
		tctx, traces := traceBatch(ctx, tr, batchTrace, []hydee.ExperimentSpec{{
			Kernel: k, Params: hydee.KernelParams{NP: np, Iters: 2}, Proto: hydee.ProtoNative, Model: hydee.Myrinet10G(),
		}})
		trace, err := hydee.RunExperimentCtx(tctx, traces[0])
		if err != nil {
			return nil, fmt.Errorf("%s: trace run: %w", name, err)
		}
		topo := hydee.NewTopology(cluster(tr, l, hydee.CommGraphFromPairBytes(np, trace.PairBytes)).Assign)
		prog, err := k.Make(hydee.KernelParams{NP: np, Iters: iters})
		if err != nil {
			return nil, err
		}
		shard := pick(seed, 3, ecData+ecParity)
		// newStore returns the faulted store and the erasure-coded store
		// inside it, which counts the degraded loads.
		newStore := func() (hydee.Store, hydee.Store, error) {
			ec, err := hydee.NewECStore(ecData, ecParity, 4e9, 4e9, hydee.ClusterPlacement(topo, ecData+ecParity))
			if err != nil {
				return nil, nil, err
			}
			st, err := hydee.NewFaultyStore(ec, hydee.ShardFault{Shard: shard, AtVT: 1, Kind: hydee.FaultKill})
			return st, ec, err
		}
		base := []hydee.Option{
			hydee.WithTopology(topo), hydee.WithModel(hydee.Myrinet10G()), hydee.WithCheckpointEvery(1),
		}
		st, _, err := newStore()
		if err != nil {
			return nil, err
		}
		ref, err := simRun(ctx, nil, np, base, prog, st)
		if err != nil {
			return nil, fmt.Errorf("%s: failure-free reference: %w", name, err)
		}
		victims := []int{pick(seed, 2, np)}
		scope := len(hydee.HydEE().RestartScope(topo, victims))
		opts := append(slices.Clip(base), hydee.WithFailureEvents(hydee.FailureEvent{
			Ranks: victims, When: hydee.FailureTrigger{AfterCheckpoints: iters / 2},
		}))
		return func(ctx context.Context, tr *tracer) iteration {
			start := time.Now()
			st, ec, err := newStore()
			var res *hydee.Result
			if err == nil {
				res, err = simRun(ctx, tr, np, opts, prog, st)
			}
			wall := time.Since(start)
			o := newOutcome("ft/hydee", res, err)
			o.ref, o.scope = ref.Results, scope
			if d, ok := ec.(interface{ DegradedLoads() int64 }); ok {
				o.degraded = d.DegradedLoads()
			}
			return iteration{wall: wall, runs: []outcome{o}}
		}, nil
	}}
}

// nasWorkload is the paper reproduction at np ranks: Table I (a native
// trace run of every kernel plus the clustering tool) feeding Figure 6
// (native, mlog and hydee per kernel), failure-free, each batch through
// hydee.RunExperiments with par workers. Set-up computes each kernel's
// failure-free reference digests, which all three Figure 6 protocols
// must reproduce.
func nasWorkload(name string, np, traceIters, iters, par int) workload {
	protos := []hydee.ExperimentProto{hydee.ProtoNative, hydee.ProtoMLog, hydee.ProtoHydEE}
	return workload{name: name, setup: func(ctx context.Context, _ int64, _ *tracer) (iterFunc, error) {
		kernels := hydee.Kernels()
		params := hydee.KernelParams{NP: np, Iters: iters}
		specs := make([]hydee.ExperimentSpec, len(kernels))
		for i, k := range kernels {
			specs[i] = hydee.ExperimentSpec{Kernel: k, Params: params, Proto: hydee.ProtoNative, Model: hydee.Myrinet10G()}
		}
		sums, err := hydee.RunExperiments(ctx, specs, par)
		if err != nil {
			return nil, fmt.Errorf("%s: failure-free references: %w", name, err)
		}
		ref := make(map[string][]any, len(kernels))
		for i, k := range kernels {
			ref[k.Name] = sums[i].Digests
		}
		return func(ctx context.Context, tr *tracer) iteration {
			start := time.Now()
			var l *lane
			if tr != nil {
				l = tr.newLane(0, -1)
			}
			traces := make([]hydee.ExperimentSpec, len(kernels))
			for i, k := range kernels {
				traces[i] = hydee.ExperimentSpec{
					Kernel: k, Params: hydee.KernelParams{NP: np, Iters: traceIters},
					Proto: hydee.ProtoNative, Model: hydee.Myrinet10G(),
				}
			}
			tctx, traces := traceBatch(ctx, tr, batchTrace, traces)
			tsums, terr := hydee.RunExperiments(tctx, traces, par)
			var runs []outcome
			var fig6 []hydee.ExperimentSpec
			for i, k := range kernels {
				if terr != nil {
					// Without the trace there is no clustering: the
					// kernel's Figure 6 runs fail with it.
					runs = append(runs, summaryOutcome(k.Name+"/trace", nil, terr))
					for _, p := range protos {
						runs = append(runs, summaryOutcome(k.Name+"/"+fmt.Sprint(p), nil, terr))
					}
					continue
				}
				runs = append(runs, summaryOutcome(k.Name+"/trace", tsums[i], nil))
				assign := cluster(tr, l, hydee.CommGraphFromPairBytes(np, tsums[i].PairBytes)).Assign
				for _, p := range protos {
					fig6 = append(fig6, hydee.ExperimentSpec{
						Kernel: k, Params: params, Proto: p, Assign: assign, Model: hydee.Myrinet10G(),
					})
				}
			}
			fctx, fig6 := traceBatch(ctx, tr, batchSweep, fig6)
			fsums, ferr := hydee.RunExperiments(fctx, fig6, par)
			for i, s := range fig6 {
				var sum *hydee.ExperimentSummary
				if ferr == nil {
					sum = fsums[i]
				}
				o := summaryOutcome(s.Kernel.Name+"/"+fmt.Sprint(s.Proto), sum, ferr)
				o.ref = ref[s.Kernel.Name]
				runs = append(runs, o)
			}
			return iteration{wall: time.Since(start), runs: runs}
		}, nil
	}}
}

// workloads are the benchmark's named inputs at full size.
var workloads = []workload{
	haloWorkload("halo-np512", 512, 32, 4),
	ftWorkload("ft-ckpt-np16", 16, 1000),
	nasWorkload("nas-sweep-np256", 256, 2, 3, sweepPar),
}
