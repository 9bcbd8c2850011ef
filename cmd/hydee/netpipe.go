package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"hydee"
)

// netpipeCmd regenerates Figure 5: a NetPIPE-style ping-pong sweep
// comparing native MPICH2 against HydEE between two processes of the same
// cluster (no logging) and of different clusters (with logging). The
// expected shape: degradation only for small messages, with peaks where
// the 16-byte piggyback pushes a message across a native latency plateau,
// and near-identical curves with and without logging (the log copy
// overlaps transmission). The three sweep configurations run
// concurrently.
func netpipeCmd(fs *flag.FlagSet) func() (body, error) {
	reps := fs.Int("reps", 10, "round trips per message size")
	net := fs.String("net", "myrinet10g", "network model: "+strings.Join(hydee.ModelNames(), ", "))
	return func() (body, error) {
		if *reps <= 0 {
			return nil, fmt.Errorf("-reps must be positive (got %d)", *reps)
		}
		model, err := hydee.ModelByName(*net)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, out io.Writer) error {
			rows, err := hydee.Figure5Ctx(ctx, model, nil, *reps)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "Figure 5 — %s ping-pong performance (reduction vs native MPICH2, %%):\n", model.Name())
			fmt.Fprintln(out, hydee.FormatFigure5(rows))

			// Headline observations.
			var worstLat, large hydee.Fig5Row
			for _, r := range rows {
				if r.LatRedNoLogPct < worstLat.LatRedNoLogPct {
					worstLat = r
				}
				if r.Bytes >= 1<<20 && large.Bytes == 0 {
					large = r
				}
			}
			fmt.Fprintf(out, "worst small-message latency degradation: %.1f%% at %d bytes (piggyback crosses a plateau)\n",
				worstLat.LatRedNoLogPct, worstLat.Bytes)
			fmt.Fprintf(out, "at %d bytes: no-logging %.2f%%, with-logging %.2f%% (logging is free — overlapped memcpy)\n",
				large.Bytes, large.LatRedNoLogPct, large.LatRedLogPct)
			return nil
		}, nil
	}
}
