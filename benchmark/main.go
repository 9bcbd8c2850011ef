// Command benchmark measures the HydEE simulator on three workloads and
// checks every run's outputs. Run it from the repository root through
// benchmark/run.sh, which builds it first:
//
//	bash benchmark/run.sh --workload halo-np512 --seed 2 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (wall_s, msgs_per_s,
// setup_s, peak_rss_mb); with --trace 1 it wraps the program's layer
// interfaces, prints the per-layer metrics and writes the spans of the
// first traced iteration to .bench_build/spans-<workload>.csv. The last
// line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}
//
// The line before it holds the details: host provenance, the wall-time
// samples, fail_frac, the baseline virtual-time records and, for a traced
// run, which per-layer counts repeated exactly.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// sweepPar bounds the load to what one host of the reference size (2
// cores) runs: both GOMAXPROCS and the sweep's worker count.
var sweepPar = min(2, runtime.NumCPU())

//go:embed pinned.json
var pinnedJSON []byte

// pinnedRuns are the default-seed virtual-time records of each full-size
// workload. A run that does not reproduce them counts as failed.
type pinnedRuns struct {
	Seed int64       `json:"seed"`
	Runs []runRecord `json:"runs"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	spans     string
	workloads []workload
	pinned    map[string]pinnedRuns
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: halo-np512, ft-ckpt-np16 or nas-sweep-np256")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (pinned values exist for %d; %d is held out for re-checking claims)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 20, "how long to keep starting timed iterations")
	trace := fs.Int("trace", 0, "1 wraps the layer interfaces and prints per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>.csv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	var pinned map[string]pinnedRuns
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fmt.Fprintln(stderr, "benchmark: pinned.json:", err)
		return 1
	}
	opt := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, workloads: workloads, pinned: pinned}
	if opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans-"+opt.workload+".csv")
	}
	runtime.GOMAXPROCS(sweepPar)
	res, detail, err := measure(ctx, opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	detail["host"] = hostInfo(".")
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(detail); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker applies check to every run and keeps the baseline records runs
// must repeat: the pinned ones when the seed has them, otherwise the
// first passing occurrence of each run.
type checker struct {
	base      map[string]runRecord
	pinned    bool
	attempted int
	failed    int
	reasons   []string
	log       io.Writer
}

func newChecker(p *pinnedRuns, log io.Writer) *checker {
	c := &checker{base: map[string]runRecord{}, log: log}
	if p != nil {
		c.pinned = true
		for _, r := range p.Runs {
			c.base[r.Name] = r
		}
	}
	return c
}

func (c *checker) add(it iteration) {
	for _, o := range it.runs {
		c.attempted++
		base, ok := c.base[o.rec.Name]
		if !ok && !c.pinned {
			base, ok = o.rec, true
		}
		var bp *runRecord
		if ok {
			bp = &base
		}
		why := check(o, bp)
		if why == "" {
			c.base[o.rec.Name] = base
			continue
		}
		c.failed++
		fmt.Fprintf(c.log, "benchmark: run %s failed: %s\n", o.rec.Name, why)
		if len(c.reasons) < 8 {
			c.reasons = append(c.reasons, o.rec.Name+": "+why)
		}
	}
}

// records lists the baseline records by run name.
func (c *checker) records() []runRecord {
	out := make([]runRecord, 0, len(c.base))
	for _, r := range c.base {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b runRecord) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// measure runs set-up and the timed iterations of one workload and
// returns the result line and the detail line.
func measure(ctx context.Context, opt options, log io.Writer) (result, map[string]any, error) {
	i := slices.IndexFunc(opt.workloads, func(w workload) bool { return w.name == opt.workload })
	if i < 0 {
		return result{}, nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	w := opt.workloads[i]
	var pinned *pinnedRuns
	if p, ok := opt.pinned[w.name]; ok && p.Seed == opt.seed {
		pinned = &p
	}
	ck := newChecker(pinned, log)
	detail := map[string]any{"workload": w.name, "seed": opt.seed, "held_out_seed": heldOutSeed, "trace": opt.trace}
	var res result
	var err error
	if opt.trace {
		res, err = measureTraced(ctx, w, opt, ck, detail, log)
	} else {
		res, err = measureEndToEnd(ctx, w, opt, ck, detail)
	}
	if err != nil {
		return result{}, nil, err
	}
	res.Attempted, res.Failed = ck.attempted, ck.failed
	res.Correct = ck.failed == 0 && ck.attempted > 0
	detail["attempted"], detail["failed"] = ck.attempted, ck.failed
	detail["fail_frac"] = float64(ck.failed) / float64(max(ck.attempted, 1))
	detail["failures"] = ck.reasons
	detail["pinned"] = ck.pinned
	detail["runs"] = ck.records()
	return res, detail, nil
}

func (opt options) deadline(start time.Time) func() bool {
	d := time.Duration(opt.seconds * float64(time.Second))
	return func() bool { return time.Since(start) >= d }
}

func measureEndToEnd(ctx context.Context, w workload, opt options, ck *checker, detail map[string]any) (result, error) {
	var iter iterFunc
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		start := processStart
		if rep > 0 {
			// Each repeat starts, like the first, without the
			// previous set-ups' garbage.
			if err := settle(); err != nil {
				return result{}, err
			}
			start = time.Now()
		}
		f, err := w.setup(ctx, opt.seed, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep == 0 {
			iter = f
		}
	}
	var walls, rates, rss []float64
	done := opt.deadline(time.Now())
	for len(walls) == 0 || !done() {
		if err := settle(); err != nil {
			return result{}, err
		}
		it := iter(ctx, nil)
		peak, err := peakRSSMB()
		if err != nil {
			return result{}, fmt.Errorf("peak RSS: %w", err)
		}
		ck.add(it)
		walls = append(walls, it.wall.Seconds())
		rates = append(rates, float64(it.msgs())/it.wall.Seconds())
		rss = append(rss, peak)
	}
	detail["setup_s_samples"] = setups
	detail["peak_rss_mb_samples"] = rss
	detail["wall_s"] = map[string]any{"median": median(walls), "n": len(walls), "tail": tail(walls), "samples": walls}
	values := map[string]float64{
		"wall_s": median(walls), "msgs_per_s": median(rates), "setup_s": median(setups), "peak_rss_mb": median(rss),
	}
	return result{Metrics: metricsOf(endToEnd, values)}, nil
}

// measureTraced sets up once with tracing (so the clustering tool and
// harness calls of set-up are timed), then alternates untraced and traced
// iterations, at least two pairs. The untraced ones give the allocation
// rates and the overhead baseline under the same host conditions as
// their traced neighbours. Timings are medians; counts come from the
// first traced iteration and are "exact" when every traced iteration
// repeated them.
func measureTraced(ctx context.Context, w workload, opt options, ck *checker, detail map[string]any, log io.Writer) (result, error) {
	setupTr := newTracer()
	iter, err := w.setup(ctx, opt.seed, setupTr)
	if err != nil {
		return result{}, err
	}
	done := opt.deadline(time.Now())
	var per []map[string]float64
	var walls, plainWalls, allocs, allocBytes []float64
	var first *tracer
	for len(per) < 2 || !done() {
		if err := settle(); err != nil {
			return result{}, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plain := iter(ctx, nil)
		runtime.ReadMemStats(&after)
		ck.add(plain)
		msgs := float64(max(plain.msgs(), 1))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/msgs)
		allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc)/msgs)
		plainWalls = append(plainWalls, plain.wall.Seconds())

		if err := settle(); err != nil {
			return result{}, err
		}
		tr := newTracer()
		it := iter(ctx, tr)
		ck.add(it)
		per = append(per, layerValues(tr, it))
		walls = append(walls, it.wall.Seconds())
		if first == nil {
			first = tr
		}
	}
	if w.graphInSetup {
		sv := layerValues(setupTr, iteration{})
		for _, v := range per {
			for _, name := range graphMetrics {
				v[name] = sv[name]
			}
		}
	}
	values := map[string]float64{}
	var exact, reportOnly []string
	for _, d := range perLayer {
		if !d.count {
			xs := make([]float64, len(per))
			for i, v := range per {
				xs[i] = v[d.name]
			}
			values[d.name] = median(xs)
			continue
		}
		values[d.name] = per[0][d.name]
		if slices.IndexFunc(per, func(v map[string]float64) bool { return v[d.name] != per[0][d.name] }) < 0 {
			exact = append(exact, d.name)
		} else {
			reportOnly = append(reportOnly, d.name)
		}
	}
	values["mpi.allocs_per_msg"] = median(allocs)
	values["mpi.alloc_bytes_per_msg"] = median(allocBytes)
	values["trace.overhead_s"] = median(walls) - median(plainWalls)
	if err := os.MkdirAll(filepath.Dir(opt.spans), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(opt.spans, first); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "benchmark: spans of the first traced iteration written to %s\n", opt.spans)
	detail["spans_file"] = opt.spans
	detail["untraced_wall_s"] = plainWalls
	detail["traced_wall_s"] = walls
	detail["exact"] = exact
	detail["report_only"] = reportOnly
	return result{Metrics: metricsOf(perLayer, values)}, nil
}

// settle starts an iteration from the same state as the previous one:
// it collects the previous iteration's garbage, returns the freed memory
// to the OS and restarts the peak-RSS counter (VmHWM) from the current
// resident set, so each iteration's peak is its own.
func settle() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// metricsOf attaches units to the defined metrics' values; a missing
// value is a bug in the benchmark.
func metricsOf(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic(errors.New("benchmark: no value for metric " + d.name))
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}
