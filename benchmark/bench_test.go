package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hydee"
)

// tinyWorkloads are the three workloads at test size.
var tinyWorkloads = []workload{
	haloWorkload("halo-tiny", 16, 4, 4),
	ftWorkload("ft-tiny", 16, 4),
	nasWorkload("nas-tiny", 16, 2, 2, 2),
}

func tinyOptions(t *testing.T, name string, trace bool) options {
	return options{
		workload: name, seed: defaultSeed, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.csv"), workloads: tinyWorkloads,
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must honour.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestTinyWorkloadsPassEveryCheck(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range tinyWorkloads {
		for _, trace := range []bool{false, true} {
			res, detail, err := measure(context.Background(), tinyOptions(t, w.name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, detail["failures"])
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %q", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// onePassingIteration sets up the tiny halo workload and runs it once.
func onePassingIteration(t *testing.T) iteration {
	t.Helper()
	iter, err := tinyWorkloads[0].setup(context.Background(), defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	it := iter(context.Background(), nil)
	ck := newChecker(nil, io.Discard)
	ck.add(it)
	if ck.failed != 0 {
		t.Fatalf("baseline iteration failed: %v", ck.reasons)
	}
	return it
}

func TestCorruptedDigestCountsAsFailedRun(t *testing.T) {
	it := onePassingIteration(t)
	o := &it.runs[0]
	o.digests = slices.Clone(o.digests)
	o.digests[0] = "corrupted"
	ck := newChecker(nil, io.Discard)
	ck.add(it)
	if ck.attempted != 1 || ck.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1", ck.attempted, ck.failed)
	}
}

func TestWrongPinnedMakespanCountsAsFailedRun(t *testing.T) {
	it := onePassingIteration(t)
	rec := it.runs[0].rec
	rec.MakespanNS++
	ck := newChecker(&pinnedRuns{Seed: defaultSeed, Runs: []runRecord{rec}}, io.Discard)
	ck.add(it)
	if ck.attempted != 1 || ck.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1", ck.attempted, ck.failed)
	}

	opt := tinyOptions(t, "halo-tiny", false)
	opt.pinned = map[string]pinnedRuns{"halo-tiny": {Seed: defaultSeed, Runs: []runRecord{rec}}}
	res, _, err := measure(context.Background(), opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every run failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestRestartScopeMismatchCountsAsFailedRun(t *testing.T) {
	it := onePassingIteration(t)
	it.runs[0].scope++
	ck := newChecker(nil, io.Discard)
	ck.add(it)
	if ck.failed != 1 {
		t.Fatalf("failed %d, want 1", ck.failed)
	}
}

func TestSeedChoosesVictim(t *testing.T) {
	seen := map[int]bool{}
	for seed := int64(0); seed < 64; seed++ {
		if pick(seed, 1, 1024) != pick(seed, 1, 1024) {
			t.Fatal("pick is not a function of the seed")
		}
		seen[pick(seed, 1, 1024)] = true
	}
	if len(seen) < 32 {
		t.Fatalf("64 seeds chose only %d distinct victims", len(seen))
	}
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, c := range []struct {
		defs []metricDef
		want []struct{ Name, Unit string }
	}{{endToEnd, bj.EndToEnd}, {perLayer, bj.PerLayer}} {
		if len(c.defs) != len(c.want) {
			t.Errorf("benchmark defines %d metrics, BENCHMARK.json lists %d", len(c.defs), len(c.want))
		}
		for _, m := range c.want {
			i := slices.IndexFunc(c.defs, func(d metricDef) bool { return d.name == m.Name })
			if i < 0 || c.defs[i].unit != m.Unit {
				t.Errorf("BENCHMARK.json metric %s (%s) is not defined with that unit", m.Name, m.Unit)
			}
		}
	}
}

// The nas workload's harness batches go through hydee.RunExperiments; the
// traced run must still see every one of its runs, split by batch.
func TestTracedSweepSeesEveryHarnessRun(t *testing.T) {
	res, _, err := measure(context.Background(), tinyOptions(t, "nas-tiny", true), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	kernels := float64(len(hydee.Kernels()))
	if got := res.Metrics["harness.runs"].Value; got != 4*kernels {
		t.Errorf("harness.runs = %v, want %v (a trace and three Figure 6 runs per kernel)", got, 4*kernels)
	}
	for _, name := range []string{"graph.trace_s", "graph.cluster_ms", "harness.run_ms.p50"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}
