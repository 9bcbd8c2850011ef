// Command hydee regenerates the paper's experiments, one subcommand each;
// run it without arguments for the list, and `hydee <sub> -h` for a
// subcommand's flags. Backends are selected by name through the hydee
// registries, every experiment subcommand streams its runs' lifecycle
// events with -events/-exporter, and Ctrl-C cancels cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"

	"hydee"
)

// body is a subcommand's work once its flags are parsed and checked.
type body func(ctx context.Context, out io.Writer) error

// subcommand is one experiment of the hydee command. setup registers its
// flags on fs and returns the check to run after parsing, which validates
// them and yields the body — so a bad flag fails before any run starts.
type subcommand struct {
	name, summary string
	events        bool // binds the shared -events/-exporter pair
	setup         func(fs *flag.FlagSet) func() (body, error)
}

var subcommands = []subcommand{
	{"nas", "Table I and Figure 6: NAS failure-free overhead", true, nasCmd},
	{"cluster", "Table I: the off-line process-clustering tool", true, clusterCmd},
	{"netpipe", "Figure 5: ping-pong latency and bandwidth", true, netpipeCmd},
	{"recover", "E4 failure containment (and the E5 burst extension)", true, recoverCmd},
	{"bench", "one np=1024 wall-clock performance point", false, benchCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command line args (without the program name) and
// returns the exit code: 0 on success and for -h, 1 when the subcommand
// fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	i := slices.IndexFunc(subcommands, func(s subcommand) bool { return len(args) > 0 && s.name == args[0] })
	if i < 0 {
		if len(args) > 0 {
			fmt.Fprintf(stderr, "hydee: unknown subcommand %q\n", args[0])
		}
		fmt.Fprintln(stderr, "usage: hydee <subcommand> [flags]\n\nsubcommands:")
		for _, s := range subcommands {
			fmt.Fprintf(stderr, "  %-8s %s\n", s.name, s.summary)
		}
		return 2
	}
	sub := subcommands[i]
	fs := flag.NewFlagSet("hydee "+sub.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := sub.setup(fs)
	var stream hydee.EventStreamSpec
	if sub.events {
		stream.Bind(fs)
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := func() error {
		work, err := check()
		if err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		ctx, closeEvents, err := stream.Wire(ctx)
		if err != nil {
			return err
		}
		return errors.Join(work(ctx, stdout), closeEvents())
	}()
	if err != nil {
		fmt.Fprintf(stderr, "hydee %s: %v\n", sub.name, err)
		return 1
	}
	return 0
}
