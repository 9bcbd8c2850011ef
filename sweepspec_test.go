package hydee_test

// Tests for the shared flag/wire spec layer: SweepSpec resolution through
// the registries, the contiguous clusters shorthand, store binding, and
// eager rejection of bad names — the same decode path the cmd flags and
// the hydee-serve HTTP API use.

import (
	"context"
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"hydee"
)

func TestSweepSpecResolves(t *testing.T) {
	raw := `{"app":"cg","np":16,"iters":3,"proto":"hydee","clusters":4,
		"ckpt":2,"fail_at":"ckpts:1@8","net":"ideal",
		"store":"sharded:2","store_bps":1e9}`
	var s hydee.SweepSpec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	spec, err := s.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kernel.Name != "cg" || spec.Proto != hydee.ProtoHydEE || spec.CheckpointEvery != 2 {
		t.Errorf("resolved %s/%s ckpt=%d", spec.Kernel.Name, spec.Proto, spec.CheckpointEvery)
	}
	if len(spec.Assign) != 16 || spec.Assign[0] != 0 || spec.Assign[15] != 3 {
		t.Errorf("clusters shorthand: assign %v", spec.Assign)
	}
	if spec.Failures == nil || spec.Model == nil || spec.NewStore == nil {
		t.Errorf("missing resolution: failures=%v model=%v store=%v",
			spec.Failures != nil, spec.Model != nil, spec.NewStore != nil)
	}
	// The resolved spec actually runs, store and all.
	sum, err := hydee.RunExperiments(context.Background(), []hydee.ExperimentSpec{spec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum) != 1 || len(sum[0].Rounds) != 1 {
		t.Fatalf("resolved run: %d summaries, rounds %v", len(sum), sum[0].Rounds)
	}
}

func TestSweepSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		s    hydee.SweepSpec
		frag string // expected error fragment
	}{
		{"no np", hydee.SweepSpec{App: "cg"}, "np"},
		{"bad kernel", hydee.SweepSpec{App: "nope", NP: 8}, "nope"},
		{"bad proto", hydee.SweepSpec{App: "cg", NP: 8, Proto: "bogus"}, "bogus"},
		{"bad net", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", Net: "carrier-pigeon"}, "carrier-pigeon"},
		{"hydee without clustering", hydee.SweepSpec{App: "cg", NP: 8}, "assign"},
		{"assign size", hydee.SweepSpec{App: "cg", NP: 8, Assign: []int{0, 1}}, "assign"},
		{"too many clusters", hydee.SweepSpec{App: "cg", NP: 4, Clusters: 8}, "clusters"},
		{"negative cluster id", hydee.SweepSpec{App: "cg", NP: 4, Assign: []int{0, 0, -1, -1}}, "negative cluster id"},
		{"gapped assign", hydee.SweepSpec{App: "cg", NP: 4, Assign: []int{0, 0, 2, 2}}, "empty cluster"},
		{"negative ckpt", hydee.SweepSpec{App: "cg", NP: 4, Clusters: 2, CheckpointEvery: -1}, "ckpt"},
		{"bad failure spec", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", FailAt: "moon:full"}, "moon"},
		{"failure rank out of range", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native", FailAt: "ckpts:1@99"}, "99"},
		{"bad store", hydee.SweepSpec{App: "cg", NP: 8, Proto: "native",
			StoreSpec: hydee.StoreSpec{Spec: "punchcards"}}, "punchcards"},
	}
	for _, tc := range cases {
		if _, err := tc.s.Experiment(); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q misses %q", tc.name, err, tc.frag)
		}
	}
	// Experiments names the failing index.
	_, err := hydee.Experiments([]hydee.SweepSpec{
		{App: "cg", NP: 8, Proto: "native"},
		{App: "nope", NP: 8},
	})
	if err == nil || !strings.Contains(err.Error(), "run 1") {
		t.Errorf("batch error %v, want it to name run 1", err)
	}
}

// TestExperimentSpecRejectsBadAssign runs specs that bypass SweepSpec's
// validation straight through the worker pool: a bad assignment is a
// typed error, never a panic in a worker goroutine.
func TestExperimentSpecRejectsBadAssign(t *testing.T) {
	cg, err := hydee.KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	for _, assign := range [][]int{{0, 0, -1, -1}, {0, 0, 2, 2}} {
		spec := hydee.ExperimentSpec{Kernel: cg, Params: hydee.KernelParams{NP: 4, Iters: 1},
			Proto: hydee.ProtoHydEE, Assign: assign}
		if _, err := hydee.RunExperiments(context.Background(), []hydee.ExperimentSpec{spec}, 1); err == nil {
			t.Errorf("assign %v accepted", assign)
		}
	}
}

// TestDefaultModelAgreesAcrossSurfaces runs one cg configuration through
// the three run descriptions, none of which names a network model: an
// Engine, an ExperimentSpec with a nil Model and a SweepSpec with an empty
// Net. All three must take the same default and report the same makespan.
func TestDefaultModelAgreesAcrossSurfaces(t *testing.T) {
	const np, iters = 8, 3
	ctx := context.Background()
	cg, err := hydee.KernelByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1}

	prog, err := cg.Make(hydee.KernelParams{NP: np, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hydee.New(hydee.WithTopology(hydee.NewTopology(assign)), hydee.WithProtocol(hydee.HydEE()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}

	spec := hydee.ExperimentSpec{Kernel: cg, Params: hydee.KernelParams{NP: np, Iters: iters},
		Proto: hydee.ProtoHydEE, Assign: assign}
	sweep, err := hydee.SweepSpec{App: "cg", NP: np, Iters: iters, Proto: "hydee", Assign: assign}.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	sums, err := hydee.RunExperiments(ctx, []hydee.ExperimentSpec{spec, sweep}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sums[0].Makespan != res.Makespan || sums[1].Makespan != res.Makespan {
		t.Errorf("makespans differ: engine %v, ExperimentSpec %v, SweepSpec %v",
			res.Makespan, sums[0].Makespan, sums[1].Makespan)
	}
	// The shared default is the paper's testbed, not the ideal network.
	myri, err := hydee.New(hydee.WithTopology(hydee.NewTopology(assign)), hydee.WithProtocol(hydee.HydEE()),
		hydee.WithModel(hydee.Myrinet10G()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := myri.Run(ctx, prog)
	if err != nil {
		t.Fatal(err)
	}
	if want.Makespan != res.Makespan {
		t.Errorf("default makespan %v, Myrinet10G %v", res.Makespan, want.Makespan)
	}
}

// TestSpecFlagBinding parses a flag line through the shared Bind helpers
// — the cmd binaries' wiring — and checks the specs land as typed.
func TestSpecFlagBinding(t *testing.T) {
	var store hydee.StoreSpec
	var stream hydee.EventStreamSpec
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	store.Bind(fs)
	stream.Bind(fs)
	if err := fs.Parse([]string{
		"-store", "sharded:4", "-store-bps", "2e9", "-store-dir", t.TempDir(),
		"-events", "out.jsonl", "-exporter", "metrics",
	}); err != nil {
		t.Fatal(err)
	}
	if store.Spec != "sharded:4" || store.BPS != 2e9 || store.Dir == "" {
		t.Errorf("store spec: %+v", store)
	}
	if err := store.Probe(); err != nil {
		t.Errorf("probe: %v", err)
	}
	if stream.Path != "out.jsonl" || stream.Exporter != "metrics" {
		t.Errorf("stream spec: %+v", stream)
	}

	// Defaults when no flags are given: mem store, jsonl exporter, and a
	// Wire that succeeds as a no-op.
	var dstore hydee.StoreSpec
	var dstream hydee.EventStreamSpec
	dfs := flag.NewFlagSet("y", flag.ContinueOnError)
	dstore.Bind(dfs)
	dstream.Bind(dfs)
	if err := dfs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if dstore.Spec != "mem" {
		t.Errorf("default store %q", dstore.Spec)
	}
	ctx, closeFn, err := dstream.Wire(context.Background())
	if err != nil || ctx != context.Background() {
		t.Errorf("no-op wire: ctx changed or err %v", err)
	}
	if err := closeFn(); err != nil {
		t.Errorf("no-op close: %v", err)
	}
}
