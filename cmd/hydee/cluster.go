package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"hydee"
)

// clusterCmd runs the off-line process-clustering tool on one kernel or
// on all six, printing Table-I rows and, with -assign, the full cluster
// assignment usable in HydEE configurations. The six kernel traces run in
// parallel.
func clusterCmd(fs *flag.FlagSet) func() (body, error) {
	np := fs.Int("np", 256, "number of ranks")
	iters := fs.Int("iters", 2, "iterations to trace")
	app := fs.String("app", "", "kernel to cluster (bt,cg,ft,lu,mg,sp); empty = all")
	net := fs.String("net", "myrinet10g", "network model for the traces ("+strings.Join(hydee.ModelNames(), ", ")+"); clustering output is model-independent — rows derive from payload byte counts only")
	par := fs.Int("par", 0, "parallel traces (0 = one per CPU)")
	showAssign := fs.Bool("assign", false, "print the per-rank cluster assignment")
	return func() (body, error) {
		if *np <= 0 || *iters <= 0 {
			return nil, fmt.Errorf("-np and -iters must be positive (got %d, %d)", *np, *iters)
		}
		model, err := hydee.ModelByName(*net)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, out io.Writer) error {
			rows, err := hydee.Table1Ctx(ctx, *np, *iters, model, *par)
			if err != nil {
				return err
			}
			for _, r := range rows {
				if *app != "" && r.App != strings.ToLower(*app) {
					continue
				}
				fmt.Fprintf(out, "%-4s clusters=%-3d rollback=%6.2f%%  logged=%.0f/%.0f GB (%.2f%%)\n",
					strings.ToUpper(r.App), r.K, r.RollbackPct, r.LoggedGB, r.TotalGB, r.LoggedPct)
				if *showAssign {
					fmt.Fprintf(out, "  assign: %v\n", r.Assign)
				}
			}
			return nil
		}, nil
	}
}
