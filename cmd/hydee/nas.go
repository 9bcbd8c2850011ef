package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"hydee"
)

// nasCmd regenerates Figure 6: failure-free normalized execution time of
// the six NAS kernels under native MPICH2, a comparator protocol (full
// message logging by default), and HydEE with the clustering of Table I.
// The expected shape: native <= HydEE <= full logging everywhere, with
// HydEE overhead at most ~2% (the paper measures at most 1.25% on 256
// ranks). The independent runs of the sweep execute in parallel.
func nasCmd(fs *flag.FlagSet) func() (body, error) {
	np := fs.Int("np", 256, "number of ranks (256 reproduces the paper)")
	iters := fs.Int("iters", 3, "timesteps per kernel")
	traceIters := fs.Int("trace-iters", 2, "iterations used to trace the communication graphs")
	proto := fs.String("proto", "mlog", "comparator protocol: "+strings.Join(hydee.ProtocolNames(), ", "))
	net := fs.String("net", "myrinet10g", "network model: "+strings.Join(hydee.ModelNames(), ", "))
	par := fs.Int("par", 0, "parallel runs in the sweep (0 = one per CPU)")
	return func() (body, error) {
		if *np <= 0 || *iters <= 0 || *traceIters <= 0 {
			return nil, fmt.Errorf("-np, -iters and -trace-iters must be positive (got %d, %d, %d)", *np, *iters, *traceIters)
		}
		comparator, err := hydee.ExperimentProtoByName(*proto)
		if err != nil {
			return nil, err
		}
		model, err := hydee.ModelByName(*net)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, out io.Writer) error {
			t1, err := hydee.Table1Ctx(ctx, *np, *traceIters, model, *par)
			if err != nil {
				return err
			}
			clusterings := make(map[string][]int, len(t1))
			for _, r := range t1 {
				clusterings[r.App] = r.Assign
			}
			fmt.Fprintf(out, "Table I — application clustering on %d processes (%s):\n", *np, model.Name())
			fmt.Fprintln(out, hydee.FormatTable1(t1))

			rows, err := hydee.Figure6Ctx(ctx, *np, *iters, clusterings, model, comparator, *par)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "Figure 6 — NAS failure-free performance on %d processes (normalized to native, comparator %s):\n",
				*np, comparator)
			fmt.Fprintln(out, hydee.FormatFigure6(rows))

			worst := 0.0
			for _, r := range rows {
				if r.HydEEPct > worst {
					worst = r.HydEEPct
				}
			}
			fmt.Fprintf(out, "maximum HydEE overhead: %.2f%% (paper: at most 1.25%% / 2%%)\n", worst)
			return nil
		}, nil
	}
}
