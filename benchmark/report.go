package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"hydee"
)

// metricDef is one printed metric. count marks per-layer values that are
// work counts rather than timings: they are candidates for "exact".
type metricDef struct {
	name, unit string
	count      bool
}

// endToEnd are the metrics a measuring run (--trace 0) prints.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s"},
	{name: "msgs_per_s", unit: "1/s"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the metrics a traced run (--trace 1) prints, grouped by
// the module they measure. A layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{name: "transport.ctl_send_ns.p50", unit: "ns"},
	{name: "transport.ctl_send_ns.p99", unit: "ns"},
	{name: "transport.replay_send_ns.p50", unit: "ns"},
	{name: "transport.waitctl_s", unit: "s"},
	{name: "transport.rank_self_s", unit: "s"},
	{name: "transport.app_delivers", unit: "count", count: true},
	{name: "transport.ctl_msgs", unit: "count", count: true},

	{name: "mpi.run_s", unit: "s"},
	{name: "mpi.first_ckpt_ms", unit: "ms"},
	{name: "mpi.detect_to_recovery_ms", unit: "ms"},
	{name: "mpi.recovery_ms", unit: "ms"},
	{name: "mpi.events", unit: "count", count: true},
	{name: "mpi.rounds", unit: "count", count: true},
	{name: "mpi.allocs_per_msg", unit: "allocs/msg"},
	{name: "mpi.alloc_bytes_per_msg", unit: "B/msg"},

	{name: "core.presend_self_ns.p50", unit: "ns"},
	{name: "core.presend_self_ns.p99", unit: "ns"},
	{name: "core.presend_blocked_s", unit: "s"},
	{name: "core.admit_ns.p50", unit: "ns"},
	{name: "core.ondeliver_ns.p50", unit: "ns"},
	{name: "core.ondeliver_ns.p99", unit: "ns"},
	{name: "core.onctl_self_ns.p50", unit: "ns"},
	{name: "core.onctl_self_ns.p99", unit: "ns"},
	{name: "core.oncheckpoint_ns.p50", unit: "ns"},
	{name: "core.oncheckpoint_ns.p99", unit: "ns"},
	{name: "core.onrestore_self_ns.p50", unit: "ns"},
	{name: "core.recovery_run_ms", unit: "ms"},
	{name: "core.logged_msgs", unit: "count", count: true},
	{name: "core.logged_bytes", unit: "B", count: true},
	{name: "core.app_bytes", unit: "B", count: true},
	{name: "core.logged_frac", unit: "ratio", count: true},
	{name: "core.piggy_bytes", unit: "B", count: true},
	{name: "core.log_peak_bytes", unit: "B", count: true},
	{name: "core.gc_reclaimed_bytes", unit: "B", count: true},
	{name: "core.replayed_sends", unit: "count", count: true},
	{name: "core.suppressed", unit: "count", count: true},
	{name: "core.resent_logged", unit: "count", count: true},
	{name: "core.orphans", unit: "count", count: true},

	{name: "checkpoint.save_ns.p50", unit: "ns"},
	{name: "checkpoint.save_ns.p99", unit: "ns"},
	{name: "checkpoint.load_ns.p50", unit: "ns"},
	{name: "checkpoint.load_ns.p99", unit: "ns"},
	{name: "checkpoint.saves", unit: "count", count: true},
	{name: "checkpoint.loads", unit: "count", count: true},
	{name: "checkpoint.saved_bytes", unit: "B", count: true},
	{name: "checkpoint.snapshot_bytes.p50", unit: "B", count: true},
	{name: "checkpoint.max_queue_vt_ns", unit: "ns", count: true},
	{name: "checkpoint.degraded_loads", unit: "count", count: true},
	{name: "checkpoint.failed_ops", unit: "count", count: true},

	{name: "graph.cluster_ms", unit: "ms"},
	{name: "graph.trace_s", unit: "s"},
	{name: "harness.run_ms.p50", unit: "ms"},
	{name: "harness.run_ms.p90", unit: "ms"},
	{name: "harness.runs", unit: "count", count: true},

	{name: "trace.overhead_s", unit: "s"},
}

// graphMetrics are the per-layer metrics a graphInSetup workload takes
// from its traced set-up.
var graphMetrics = []string{"graph.cluster_ms", "graph.trace_s", "harness.run_ms.p50", "harness.run_ms.p90", "harness.runs"}

// layerValues computes the per-layer metrics of one traced iteration from
// its spans, its observer and its runs' own results. The untraced
// allocation rates and the tracing overhead are filled in by the caller.
func layerValues(t *tracer, it iteration) map[string]float64 {
	var dur, self [numKinds][]int64
	var presendBlocked, failedOps int64
	var snapBytes []int64
	for _, l := range t.lanes {
		for _, s := range l.spans {
			d := s.end - s.start
			dur[s.kind] = append(dur[s.kind], d)
			self[s.kind] = append(self[s.kind], d-s.child)
			if s.kind == kWaitCtl && s.parent >= 0 && l.spans[s.parent].kind == kPreSend {
				presendBlocked += d
			}
		}
		snapBytes = append(snapBytes, l.snapBytes...)
		failedOps += l.failedOps
	}
	var tot runTotals
	for _, o := range it.runs {
		tot.add(o)
	}
	v := map[string]float64{
		"transport.ctl_send_ns.p50":    pct(dur[kSendCtl], 50),
		"transport.ctl_send_ns.p99":    pct(dur[kSendCtl], 99),
		"transport.replay_send_ns.p50": pct(dur[kSendAppRaw], 50),
		"transport.waitctl_s":          sum(dur[kWaitCtl]) / 1e9,
		"transport.rank_self_s":        sum(self[kProgram]) / 1e9,
		"transport.app_delivers":       float64(tot.m.AppDelivers),
		"transport.ctl_msgs":           float64(tot.m.CtlMsgs),

		"core.presend_self_ns.p50":   pct(self[kPreSend], 50),
		"core.presend_self_ns.p99":   pct(self[kPreSend], 99),
		"core.presend_blocked_s":     float64(presendBlocked) / 1e9,
		"core.admit_ns.p50":          pct(dur[kAdmit], 50),
		"core.ondeliver_ns.p50":      pct(dur[kOnDeliver], 50),
		"core.ondeliver_ns.p99":      pct(dur[kOnDeliver], 99),
		"core.onctl_self_ns.p50":     pct(self[kOnCtl], 50),
		"core.onctl_self_ns.p99":     pct(self[kOnCtl], 99),
		"core.oncheckpoint_ns.p50":   pct(dur[kOnCheckpoint], 50),
		"core.oncheckpoint_ns.p99":   pct(dur[kOnCheckpoint], 99),
		"core.onrestore_self_ns.p50": pct(self[kOnRestore], 50),
		"core.recovery_run_ms":       sum(dur[kRecovery]) / 1e6,
		"core.logged_msgs":           float64(tot.m.LoggedMsgs),
		"core.logged_bytes":          float64(tot.m.LoggedBytes),
		"core.app_bytes":             float64(tot.m.AppBytes),
		"core.logged_frac":           ratio(tot.m.LoggedBytes, tot.m.AppBytes),
		"core.piggy_bytes":           float64(tot.m.PiggyBytes),
		"core.log_peak_bytes":        float64(tot.m.LogPeakBytes),
		"core.gc_reclaimed_bytes":    float64(tot.m.GCReclaimed),
		"core.replayed_sends":        float64(tot.m.ReplayedSends),
		"core.suppressed":            float64(tot.m.Suppressed),
		"core.resent_logged":         float64(tot.m.ResentLogged),
		"core.orphans":               float64(tot.orphans),

		"checkpoint.save_ns.p50":        pct(dur[kSave], 50),
		"checkpoint.save_ns.p99":        pct(dur[kSave], 99),
		"checkpoint.load_ns.p50":        pct(dur[kLoad], 50),
		"checkpoint.load_ns.p99":        pct(dur[kLoad], 99),
		"checkpoint.saves":              float64(tot.store.Saves),
		"checkpoint.loads":              float64(tot.store.Loads),
		"checkpoint.saved_bytes":        float64(tot.store.SavedBytes),
		"checkpoint.snapshot_bytes.p50": pct(snapBytes, 50),
		"checkpoint.max_queue_vt_ns":    float64(tot.store.MaxQueue),
		"checkpoint.degraded_loads":     float64(tot.degraded),
		"checkpoint.failed_ops":         float64(failedOps),

		"graph.cluster_ms": sum(dur[kCluster]) / 1e6,
	}
	o := t.obs
	o.mu.Lock()
	defer o.mu.Unlock()
	var runS, traceS, detect, recovery, rounds int64
	var firstCkpt, harnessRuns []int64
	for _, r := range o.runs {
		d := r.end - r.start
		runS += d
		if r.batch != batchEngine {
			harnessRuns = append(harnessRuns, d)
		}
		if r.batch == batchTrace {
			traceS += d
		}
		detect += r.detectToRecovery
		recovery += r.recovery
		rounds += r.rounds
		if r.firstCkpt >= 0 {
			firstCkpt = append(firstCkpt, r.firstCkpt-r.start)
		}
	}
	v["mpi.run_s"] = float64(runS) / 1e9
	v["mpi.first_ckpt_ms"] = pct(firstCkpt, 50) / 1e6
	v["mpi.detect_to_recovery_ms"] = float64(detect) / 1e6
	v["mpi.recovery_ms"] = float64(recovery) / 1e6
	v["mpi.events"] = float64(o.events)
	v["mpi.rounds"] = float64(rounds)
	v["graph.trace_s"] = float64(traceS) / 1e9
	v["harness.run_ms.p50"] = pct(harnessRuns, 50) / 1e6
	v["harness.run_ms.p90"] = pct(harnessRuns, 90) / 1e6
	v["harness.runs"] = float64(len(harnessRuns))
	return v
}

// runTotals sums the protocol and store accounting of an iteration's
// runs.
type runTotals struct {
	m        hydee.Metrics
	store    hydee.StoreStats
	orphans  int
	degraded int64
}

func (t *runTotals) add(o outcome) {
	t.m.Add(&o.totals)
	t.store.Saves += o.store.Saves
	t.store.Loads += o.store.Loads
	t.store.SavedBytes += o.store.SavedBytes
	t.store.MaxQueue = max(t.store.MaxQueue, o.store.MaxQueue)
	t.orphans += o.rec.Orphans
	t.degraded += o.degraded
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []int64) float64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s)
}

// pct is the nearest-rank p-th percentile of xs, 0 for none.
func pct(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

// median of xs; the mean of the middle two for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of xs with at least ten samples beyond
// it, or nil when there are too few samples for one.
func tail(xs []float64) map[string]float64 {
	n := len(xs)
	if n < 11 {
		return nil
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return map[string]float64{"pct": 100 * float64(n-10) / float64(n), "value": s[n-11]}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, io.ErrUnexpectedEOF
}

// hostInfo records where a result was measured: numbers from different
// hosts are never compared.
func hostInfo(root string) map[string]any {
	return map[string]any{
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"goarch":        runtime.GOARCH,
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"git_revision":  gitRevision(root),
		"source_sha256": sourceDigest(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitRevision reads HEAD from a .git directory at root, "" when root is
// not a git checkout.
func gitRevision(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// sourceDigest hashes the module's Go sources and go.mod files, which
// identifies the measured code where no git revision is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}
