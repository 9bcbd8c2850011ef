package hydee_test

// One benchmark per experiment in DESIGN.md's index (T1, F5, F6, E4, E5),
// plus ablations and micro-benchmarks of the hot protocol paths. The
// experiment benchmarks report the reproduced quantities via b.ReportMetric
// so `go test -bench` output doubles as an experiment record.

import (
	"context"
	"testing"

	"hydee"
	"hydee/internal/apps"
	"hydee/internal/core"
	"hydee/internal/graph"
	"hydee/internal/harness"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
	"hydee/internal/transport"
	"hydee/internal/vtime"
)

// BenchmarkTable1_Clustering regenerates Table I: trace the six kernels at
// 256 ranks and run the clustering tool.
func BenchmarkTable1_Clustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hydee.Table1(256, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.App == "ft" {
				b.ReportMetric(r.LoggedPct, "ft-logged-%")
			}
			if r.App == "cg" {
				b.ReportMetric(float64(r.K), "cg-clusters")
			}
		}
	}
}

// BenchmarkFigure5_NetPIPE regenerates Figure 5: the three ping-pong sweeps
// over the Myrinet 10G model.
func BenchmarkFigure5_NetPIPE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := hydee.Figure5(nil, 5)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.LatRedNoLogPct < worst {
				worst = r.LatRedNoLogPct
			}
		}
		b.ReportMetric(-worst, "worst-degradation-%")
	}
}

// BenchmarkFigure6_NAS regenerates Figure 6: six kernels at 256 ranks under
// native / full logging / HydEE.
func BenchmarkFigure6_NAS(b *testing.B) {
	clusterings, _, err := hydee.Clusterings(256, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := hydee.Figure6(256, 3, clusterings)
		if err != nil {
			b.Fatal(err)
		}
		worstH, worstM := 0.0, 0.0
		for _, r := range rows {
			if r.HydEEPct > worstH {
				worstH = r.HydEEPct
			}
			if r.MLogPct > worstM {
				worstM = r.MLogPct
			}
		}
		b.ReportMetric(worstH, "hydee-max-ovh-%")
		b.ReportMetric(worstM, "mlog-max-ovh-%")
	}
}

// BenchmarkE4_Containment regenerates the failure-containment comparison on
// CG at 64 ranks.
func BenchmarkE4_Containment(b *testing.B) {
	k, err := apps.Get("cg")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := harness.ClusterApp(k, apps.Params{NP: 64, Iters: 2}, graph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Containment(k, 64, 10, 3, cl.Assign, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Proto == "hydee" {
				b.ReportMetric(r.RolledBackPct, "hydee-rolledback-%")
			}
		}
	}
}

// BenchmarkE5_CheckpointBurst regenerates the I/O-burst comparison.
func BenchmarkE5_CheckpointBurst(b *testing.B) {
	k, err := apps.Get("bt")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := harness.ClusterApp(k, apps.Params{NP: 16, Iters: 2}, graph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := harness.CheckpointBurst(k, 16, 8, 4, cl.Assign, 4e9)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Config == "hydee-staggered" {
				b.ReportMetric(r.MaxQueue.Seconds()*1e3, "staggered-queue-ms")
			}
		}
	}
}

// BenchmarkAblation_GC compares the peak sender-log occupancy with and
// without the garbage collection of §III-E (DESIGN.md ablation).
func BenchmarkAblation_GC(b *testing.B) {
	assign := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	run := func(disable bool) int64 {
		prot := core.New()
		if disable {
			prot = core.NewWithOptions(core.Options{Name: "hydee-nogc", DisableGC: true})
		}
		res := runEngine(b, hydee.StencilProgram(20, 64*1024),
			hydee.WithTopology(hydee.NewTopology(assign)), hydee.WithProtocol(prot),
			hydee.WithModel(hydee.Myrinet10G()), hydee.WithCheckpointEvery(2))
		return res.Totals.LogPeakBytes
	}
	for i := 0; i < b.N; i++ {
		withGC := run(false)
		withoutGC := run(true)
		b.ReportMetric(float64(withGC)/1e6, "gc-peak-MB")
		b.ReportMetric(float64(withoutGC)/1e6, "nogc-peak-MB")
	}
}

// BenchmarkAblation_Piggyback measures the failure-free cost of the phase
// piggybacking alone (HydEE single cluster: no logging, only protocol data)
// against native, on a small-message-heavy workload.
func BenchmarkAblation_Piggyback(b *testing.B) {
	run := func(prot rollback.Protocol) float64 {
		res := runEngine(b, hydee.StencilProgram(10, 256),
			hydee.WithRanks(16), hydee.WithProtocol(prot), hydee.WithModel(hydee.Myrinet10G()))
		return float64(res.Makespan)
	}
	for i := 0; i < b.N; i++ {
		nat := run(rollback.Native())
		hyd := run(core.New())
		b.ReportMetric((hyd/nat-1)*100, "piggyback-ovh-%")
	}
}

// BenchmarkAblation_SSDLogging evaluates the §V-C future-work design:
// logging through a bounded memory staging buffer drained asynchronously to
// a local device, at several device bandwidths, on the logging-heaviest
// kernel (FT). The overhead versus in-memory logging shows when the device
// becomes the bottleneck.
func BenchmarkAblation_SSDLogging(b *testing.B) {
	ft, err := apps.Get("ft")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := ft.Make(apps.Params{NP: 16, Iters: 2})
	if err != nil {
		b.Fatal(err)
	}
	assign := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	run := func(drainBPS float64) float64 {
		opts := core.Options{}
		if drainBPS > 0 {
			opts = core.Options{Name: "hydee-ssd", LogDrainBPS: drainBPS, LogMemBudget: 8 << 20}
		}
		res := runEngine(b, prog, hydee.WithTopology(hydee.NewTopology(assign)),
			hydee.WithProtocol(core.NewWithOptions(opts)), hydee.WithModel(hydee.Myrinet10G()))
		return float64(res.Makespan)
	}
	for i := 0; i < b.N; i++ {
		mem := run(0)
		fast := run(2e9)   // NVMe-class device
		slow := run(0.1e9) // slow SATA-class device
		b.ReportMetric((fast/mem-1)*100, "nvme-ovh-%")
		b.ReportMetric((slow/mem-1)*100, "sata-ovh-%")
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkMicro_TransportSendRecv measures the raw substrate throughput.
func BenchmarkMicro_TransportSendRecv(b *testing.B) {
	n := transport.NewNetwork(2, netmodel.Ideal())
	ep := n.Endpoint(1)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Send(&transport.Msg{Src: 0, Dst: 1, Kind: transport.App, Data: payload})
		if _, err := ep.Recv(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_EnginePreSend measures Algorithm 1's send path (date,
// phase, logging decision, piggyback strategy).
func BenchmarkMicro_EnginePreSend(b *testing.B) {
	topo := rollback.NewTopology([]int{0, 1})
	px := &benchProc{topo: topo}
	e := core.New().NewEngine(0, px)
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &transport.Msg{Src: 0, Dst: 1, Kind: transport.App, WireLen: 128, Data: payload}
		if _, err := e.PreSend(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_Partitioner measures the clustering tool on a 256-rank
// torus graph.
func BenchmarkMicro_Partitioner(b *testing.B) {
	g := graph.New(256)
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			g.AddTraffic(r*16+c, r*16+(c+1)%16, 4)
			g.AddTraffic(r*16+c, ((r+1)%16)*16+c, 1)
		}
	}
	opt := graph.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := graph.Cluster(g, opt)
		if res.K < 2 {
			b.Fatal("degenerate clustering")
		}
	}
}

// BenchmarkMicro_PingPong measures the full simulated stack end to end.
func BenchmarkMicro_PingPong(b *testing.B) {
	prog := func(c *hydee.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				if err := c.Send(1, 1, []byte("x")); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 1); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 100; i++ {
			if _, _, err := c.Recv(0, 1); err != nil {
				return err
			}
			if err := c.Send(0, 1, []byte("y")); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < b.N; i++ {
		runEngine(b, prog, hydee.WithProtocol(hydee.HydEE()),
			hydee.WithTopology(hydee.NewTopology([]int{0, 1})), hydee.WithModel(hydee.Myrinet10G()))
	}
}

// runEngine runs prog once on an engine built from opts.
func runEngine(b *testing.B, prog hydee.Program, opts ...hydee.Option) *hydee.Result {
	b.Helper()
	eng, err := hydee.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Run(context.Background(), prog)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchProc is a minimal rollback.Proc for micro-benchmarks.
type benchProc struct {
	topo    *rollback.Topology
	metrics rollback.Metrics
	clock   vtime.Clock
}

func (p *benchProc) Rank() int                                { return 0 }
func (p *benchProc) Topo() *rollback.Topology                 { return p.topo }
func (p *benchProc) Clock() *vtime.Clock                      { return &p.clock }
func (p *benchProc) Model() netmodel.Model                    { return netmodel.Myrinet10G() }
func (p *benchProc) Metrics() *rollback.Metrics               { return &p.metrics }
func (p *benchProc) SendCtl(dst int, body any, wireBytes int) {}
func (p *benchProc) SendAppRaw(m *transport.Msg)              {}
func (p *benchProc) WaitCtl(pred func() bool) error           { return nil }
func (p *benchProc) RecoveryID() int                          { return p.topo.NP }
func (p *benchProc) HeldFrom(src int) int64                   { return 0 }
func (p *benchProc) HeldEntries(src int) []rollback.HeldMsg   { return nil }
