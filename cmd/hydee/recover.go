package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"hydee"
	"hydee/internal/apps"
	"hydee/internal/graph"
	"hydee/internal/harness"
)

// recoverCmd runs the failure-containment experiment (E4 in DESIGN.md):
// it injects a failure into a kernel under the coordinated baseline, full
// message logging, and HydEE, and reports how many ranks roll back, the
// recovery time, and the makespan cost — the quantitative backing for the
// paper's introduction claims (less rolled-back computation, faster
// recovery, freed resources). -store sharded:4 places each cluster's
// checkpoints on its own storage shard; with a sharded store and
// -store-bps it also prints the E5-extension burst comparison.
func recoverCmd(fs *flag.FlagSet) func() (body, error) {
	np := fs.Int("np", 64, "number of ranks")
	iters := fs.Int("iters", 10, "timesteps")
	app := fs.String("app", "cg", "kernel (bt,cg,ft,lu,mg,sp)")
	ckpt := fs.Int("ckpt", 3, "checkpoint every k iterations")
	failAfter := fs.Int("fail-after", 1, "inject the failure after this many checkpoints")
	failAt := fs.String("fail-at", "", `inject the failure at a trigger spec instead of -fail-after: "vt:<duration>" (a virtual time — the kill is an ordered virtual-time event, so even a mid-checkpoint-wave landing is byte-reproducible), "sends:<n>" or "ckpts:<n>"`)
	net := fs.String("net", "myrinet10g", "network model: "+strings.Join(hydee.ModelNames(), ", "))
	var store hydee.StoreSpec
	store.Bind(fs)
	return func() (body, error) {
		if *np <= 0 || *iters <= 0 || *ckpt <= 0 {
			return nil, fmt.Errorf("-np, -iters and -ckpt must be positive (got %d, %d, %d)", *np, *iters, *ckpt)
		}
		k, err := apps.Get(*app)
		if err != nil {
			return nil, err
		}
		model, err := hydee.ModelByName(*net)
		if err != nil {
			return nil, err
		}
		// Failure flags are validated eagerly with a typed error listing
		// the valid forms, like the -store probe below — a typo must fail
		// at startup, not yield a silently failure-free sweep.
		failWhen := hydee.FailureTrigger{AfterCheckpoints: *failAfter}
		if *failAt != "" {
			// The E4 experiment fixes its victim at rank np/2, so -fail-at
			// takes only the trigger; a spec naming ranks would be silently
			// ignored and is rejected instead.
			if strings.Contains(*failAt, "@") {
				return nil, fmt.Errorf("-fail-at %q: the E4 victim is fixed at rank np/2; give only the trigger (e.g. vt:1.5ms), without @ranks", *failAt)
			}
			events, err := hydee.ParseFailureSpec(*failAt + "@0")
			if err != nil {
				return nil, err
			}
			if len(events) != 1 {
				return nil, fmt.Errorf("-fail-at wants exactly one trigger, got %d events", len(events))
			}
			failWhen = events[0].When
		}
		if err := failWhen.Validate(); err != nil {
			return nil, fmt.Errorf("%v (valid -fail-at forms: %s)", err, hydee.FailureSpecForms)
		}
		// Probe the registry now so an unknown or misconfigured store
		// fails before any sweep work, not inside the first run.
		if err := store.Probe(); err != nil {
			return nil, err
		}
		return func(ctx context.Context, out io.Writer) error {
			cl, err := harness.ClusterApp(k, apps.Params{NP: *np, Iters: 2}, graph.DefaultOptions())
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s on %d ranks: %d clusters, %.2f%% logged, %.2f%% expected rollback (store %s)\n\n",
				*app, *np, cl.K, 100*cl.CutFrac, 100*cl.ExpRollback, store.Spec)

			rows, err := harness.ContainmentCtx(ctx, k, *np, *iters, *ckpt, cl.Assign, failWhen, model, store.New)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, hydee.FormatE4(rows))
			fmt.Fprintln(out, "every recovered execution was validated against its failure-free digests ✓")

			// The E5 burst comparison is about plain sharding; redundancy
			// specs (ec, replica) have their own shard-loss sweep (E6).
			_, opts, _ := hydee.ParseStoreSpec(store.Spec)
			if opts.Shards <= 1 || opts.Parity > 0 || opts.Replicas > 0 || store.BPS <= 0 {
				return nil
			}
			burst, err := harness.CheckpointBurstSharded(ctx, k, *np, *iters, *ckpt, cl.Assign, store.BPS, opts.Shards, model)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "\nE5 extension — checkpoint I/O burst, shared vs staggered vs %d cluster-placed shards:\n", opts.Shards)
			fmt.Fprintln(out, hydee.FormatE5(burst))
			return nil
		}, nil
	}
}
