package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"hydee"
)

// point is one line of BENCH_hydee.json.
type point struct {
	TS           string  `json:"ts"`
	GoVersion    string  `json:"go"`
	NP           int     `json:"np"`
	Clusters     int     `json:"clusters"`
	Iters        int     `json:"iters"`
	Events       int64   `json:"events"`
	WallMS       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	MakespanVT   int64   `json:"makespan_vt_ns"`
	Rounds       int     `json:"rounds"`
	RolledBack   int     `json:"rolled_back"`
}

// benchCmd runs the np=1024 smoke workload (32 clusters of 32, a
// checkpoint wave, one failure, one recovery round — the same shape as
// TestHydEESmoke1024) as a wall-clock performance point and appends one
// JSON line to -out:
//
//	{"ts":"...","np":1024,"clusters":32,"events":...,"wall_ms":...,
//	 "events_per_sec":...,"makespan_vt_ns":...,"rounds":1,"rolled_back":32}
//
// The file accumulates one line per invocation, so regressions in the
// engine's throughput show up as a series over commits (`make bench-json`
// appends to BENCH_hydee.json). The workload is virtual-time
// deterministic — makespan_vt_ns and rolled_back must never change for a
// given shape; only wall_ms and events_per_sec measure the machine. It
// runs on the ideal network, pinned so the series stays comparable.
func benchCmd(fs *flag.FlagSet) func() (body, error) {
	np := fs.Int("np", 1024, "number of ranks")
	clusterSize := fs.Int("cluster-size", 32, "ranks per cluster")
	iters := fs.Int("iters", 4, "stencil timesteps")
	outPath := fs.String("out", "", "append the JSON point to this file (empty = stdout only)")
	return func() (body, error) {
		if *np <= 0 || *clusterSize <= 0 || *np%*clusterSize != 0 {
			return nil, fmt.Errorf("-np must be a positive multiple of -cluster-size (got %d, %d)", *np, *clusterSize)
		}
		return func(ctx context.Context, out io.Writer) error {
			assign := make([]int, *np)
			for r := range assign {
				assign[r] = r / *clusterSize
			}
			var events atomic.Int64
			eng, err := hydee.New(
				hydee.WithTopology(hydee.NewTopology(assign)),
				hydee.WithProtocol(hydee.HydEE()),
				hydee.WithModel(hydee.IdealNetwork()),
				hydee.WithCheckpointEvery(2),
				hydee.WithFailureEvents(hydee.FailureEvent{
					Ranks: []int{*np / 2}, When: hydee.FailureTrigger{AfterCheckpoints: 1},
				}),
				hydee.WithObserver(hydee.ObserverFunc(func(hydee.RunEvent) { events.Add(1) })),
			)
			if err != nil {
				return err
			}

			start := time.Now()
			res, err := eng.Run(ctx, hydee.StencilProgram(*iters, 256))
			wall := time.Since(start)
			if err != nil {
				return err
			}
			if len(res.Rounds) != 1 || res.Rounds[0].RolledBack != *clusterSize {
				return fmt.Errorf("workload drifted: rounds %+v, want 1 round rolling back %d ranks", res.Rounds, *clusterSize)
			}
			line, err := json.Marshal(point{
				TS:           time.Now().UTC().Format(time.RFC3339),
				GoVersion:    runtime.Version(),
				NP:           *np,
				Clusters:     *np / *clusterSize,
				Iters:        *iters,
				Events:       events.Load(),
				WallMS:       float64(wall.Microseconds()) / 1e3,
				EventsPerSec: float64(events.Load()) / wall.Seconds(),
				MakespanVT:   int64(res.Makespan),
				Rounds:       len(res.Rounds),
				RolledBack:   res.Rounds[0].RolledBack,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(line))
			if *outPath == "" {
				return nil
			}
			f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintln(f, string(line)); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}, nil
	}
}
