package hydee

import (
	"context"
	"fmt"
	"time"

	"hydee/internal/checkpoint"
	"hydee/internal/mpi"
)

// Engine is a reusable, configured runner for message-passing programs. It
// is built once with New and functional options, then drives any number of
// sequential runs; each run gets a fresh network and (unless the
// configuration pins one) a fresh checkpoint store, so runs never bleed
// state into each other.
//
//	eng, err := hydee.New(
//	    hydee.WithTopology(hydee.NewTopology([]int{0, 0, 1, 1})),
//	    hydee.WithProtocol(hydee.HydEE()),
//	    hydee.WithModel(hydee.Myrinet10G()),
//	    hydee.WithCheckpointEvery(5),
//	)
//	res, err := eng.Run(ctx, program)
//
// Run honors ctx: cancellation or deadline expiry unwinds every rank
// goroutine and returns a *RunError wrapping ErrCanceled. All run errors
// are *RunError values carrying rank, round and phase; match causes with
// errors.Is against ErrCanceled, ErrDeadlock and ErrNotSendDeterministic.
type Engine struct {
	cfg                         mpi.Config
	storeWriteBPS, storeReadBPS float64
	// storeMake/storeOpts build a fresh per-run store when WithStoreName
	// was given (and no WithStore pinned one).
	storeMake StoreFactory
	storeOpts StoreOptions
	// failAt accumulates WithFailureAt events; New appends them to the
	// configured failure schedule.
	failAt []FailureEvent
}

// Option configures an Engine. Options apply in the order given to New;
// when two options set the same knob, the later one wins.
type Option func(*Engine) error

// New builds an Engine from options and validates the resulting
// configuration. The rank count comes from WithRanks or, if absent, from
// the topology.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if e.cfg.NP == 0 && e.cfg.Topo != nil {
		e.cfg.NP = e.cfg.Topo.NP
	}
	if len(e.failAt) > 0 {
		var events []FailureEvent
		if e.cfg.Failures != nil {
			events = append(events, e.cfg.Failures.Events...)
		}
		e.cfg.Failures = NewFailureSchedule(append(events, e.failAt...)...)
	}
	if err := mpi.Validate(e.cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes program under the engine's configuration. The engine itself
// is not mutated, so it can be reused for further runs; concurrent Run
// calls on one engine are safe as long as shared injected state (observer,
// recorder, explicit store) tolerates them.
func (e *Engine) Run(ctx context.Context, program Program) (*Result, error) {
	cfg := e.cfg
	if cfg.Store == nil {
		st, err := e.makeStore()
		if err != nil {
			return nil, err
		}
		cfg.Store = st
	}
	return mpi.RunContext(ctx, cfg, program)
}

// makeStore builds the per-run store: the WithStoreName factory when one
// was given, the default in-memory store otherwise.
func (e *Engine) makeStore() (checkpoint.Store, error) {
	if e.storeMake == nil {
		return checkpoint.NewMemStore(e.storeWriteBPS, e.storeReadBPS), nil
	}
	opts := e.storeOpts
	if opts.WriteBPS == 0 && opts.ReadBPS == 0 {
		opts.WriteBPS, opts.ReadBPS = e.storeWriteBPS, e.storeReadBPS
	}
	return buildStore(e.storeMake, opts, e.cfg.Topo)
}

// Config returns a copy of the runtime configuration the engine resolved
// from its options (the per-run store default is applied at Run time).
func (e *Engine) Config() Config { return e.cfg }

// WithRanks sets the number of application processes. It is only needed
// when no topology is given: WithTopology implies the rank count.
func WithRanks(np int) Option {
	return func(e *Engine) error {
		if np <= 0 {
			return fmt.Errorf("hydee: WithRanks(%d): rank count must be positive", np)
		}
		e.cfg.NP = np
		return nil
	}
}

// WithTopology sets the process clustering. If no WithRanks option is
// given, the rank count is taken from the topology.
func WithTopology(t *Topology) Option {
	return func(e *Engine) error {
		if t == nil {
			return fmt.Errorf("hydee: WithTopology(nil)")
		}
		e.cfg.Topo = t
		return nil
	}
}

// WithProtocol sets the rollback-recovery protocol (HydEE, Coordinated,
// MessageLogging, Native, or any custom implementation).
func WithProtocol(p Protocol) Option {
	return func(e *Engine) error {
		e.cfg.Protocol = p
		return nil
	}
}

// WithProtocolName resolves the protocol through the name registry
// ("hydee", "coord", "mlog", "native").
func WithProtocolName(name string) Option {
	return func(e *Engine) error {
		p, err := ProtocolByName(name)
		if err != nil {
			return err
		}
		e.cfg.Protocol = p
		return nil
	}
}

// WithModel sets the network cost model.
func WithModel(m Model) Option {
	return func(e *Engine) error {
		e.cfg.Model = m
		return nil
	}
}

// WithModelName resolves the network model through the name registry
// ("myrinet10g", "tcpgige", "ideal").
func WithModelName(name string) Option {
	return func(e *Engine) error {
		m, err := ModelByName(name)
		if err != nil {
			return err
		}
		e.cfg.Model = m
		return nil
	}
}

// WithCheckpointEvery fires a coordinated checkpoint every k-th cooperative
// Comm.Checkpoint() call; 0 disables checkpointing.
func WithCheckpointEvery(k int) Option {
	return func(e *Engine) error {
		if k < 0 {
			return fmt.Errorf("hydee: WithCheckpointEvery(%d): interval must be >= 0", k)
		}
		e.cfg.CheckpointEvery = k
		return nil
	}
}

// WithStaggeredCheckpoints offsets the checkpoint schedule per cluster to
// avoid stable-storage I/O bursts (experiment E5).
func WithStaggeredCheckpoints() Option {
	return func(e *Engine) error {
		e.cfg.CheckpointStagger = true
		return nil
	}
}

// WithFailures installs a fail-stop failure schedule. Each Run compiles its
// own injector, so a schedule fires afresh on every run of the engine.
func WithFailures(s *FailureSchedule) Option {
	return func(e *Engine) error {
		e.cfg.Failures = s
		return nil
	}
}

// WithFailureEvents is shorthand for WithFailures(NewFailureSchedule(...)).
func WithFailureEvents(events ...FailureEvent) Option {
	return WithFailures(NewFailureSchedule(events...))
}

// WithFailureAt schedules a fail-stop event at a virtual time: the listed
// ranks die together when the first one's virtual clock reaches at. The
// kill is an ordered event in virtual time — in-flight deliveries and
// checkpoint writes at or below the detection fence complete, later ones
// are cancelled — so the run's outcome is byte-reproducible wherever the
// failure lands, including mid-checkpoint-wave under a storage bandwidth
// model. Repeated WithFailureAt options accumulate into one schedule (in
// option order); combining with WithFailures appends to that schedule
// regardless of option order.
func WithFailureAt(at Time, ranks ...int) Option {
	return func(e *Engine) error {
		if at <= 0 {
			return fmt.Errorf("hydee: WithFailureAt(%v): virtual time must be positive", at)
		}
		if len(ranks) == 0 {
			return fmt.Errorf("hydee: WithFailureAt(%v): need at least one victim rank", at)
		}
		e.failAt = append(e.failAt, FailureEvent{
			Ranks: append([]int(nil), ranks...),
			When:  FailureTrigger{AtVT: at},
		})
		return nil
	}
}

// WithObserver streams structured lifecycle events (checkpoints, failures,
// recovery rounds, completion) to o. The runtime serializes calls. Use
// NewLogObserver for a human-readable debug stream, MultiObserver to fan
// out.
func WithObserver(o Observer) Option {
	return func(e *Engine) error {
		e.cfg.Observer = o
		return nil
	}
}

// WithRecorder records application-level send/deliver events for the
// determinism property checks.
func WithRecorder(r *EventRecorder) Option {
	return func(e *Engine) error {
		e.cfg.Recorder = r
		return nil
	}
}

// WithStore pins one checkpoint store instance for all of the engine's
// runs — the hook for third-party Store implementations and for tests
// that restart from a pre-populated store. A pinned store is shared
// state: sequential runs see each other's snapshots (sequences restart
// from 1, so same-program reruns overwrite rather than diverge), and
// concurrent Run calls require the store to tolerate them. For isolated
// per-run stores resolved by name, use WithStoreName.
func WithStore(st Store) Option {
	return func(e *Engine) error {
		if st == nil {
			return fmt.Errorf("hydee: WithStore(nil)")
		}
		e.cfg.Store = st
		e.storeMake = nil
		return nil
	}
}

// WithStoreName resolves the store through the name registry ("mem",
// "file", "sharded", or anything added via RegisterStore) and builds a
// fresh store from it on every Run, so sequential runs never bleed
// state. Zero opts bandwidths fall back to WithStorageBandwidth; a
// sharded store with no explicit placement defaults to per-cluster
// placement when the engine has a topology.
func WithStoreName(name string, opts StoreOptions) Option {
	return func(e *Engine) error {
		mk, err := storeRegistry.lookup(name)
		if err != nil {
			return err
		}
		e.storeMake, e.storeOpts = mk, opts
		e.cfg.Store = nil
		return nil
	}
}

// WithStorageBandwidth models stable-storage write/read bandwidth in
// bytes/second for the per-run checkpoint store (0 = free storage).
func WithStorageBandwidth(writeBPS, readBPS float64) Option {
	return func(e *Engine) error {
		if writeBPS < 0 || readBPS < 0 {
			return fmt.Errorf("hydee: WithStorageBandwidth(%g, %g): bandwidth must be >= 0", writeBPS, readBPS)
		}
		e.storeWriteBPS, e.storeReadBPS = writeBPS, readBPS
		return nil
	}
}

// WithMaxRounds caps recovery rounds as a runaway backstop; 0 derives the
// cap from the failure schedule.
func WithMaxRounds(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("hydee: WithMaxRounds(%d): cap must be >= 0", n)
		}
		e.cfg.MaxRounds = n
		return nil
	}
}

// WithWatchdog sets the real-time deadlock guard; 0 keeps the 60s default.
// Prefer context deadlines for external time budgets — the watchdog exists
// to catch runs that stop making progress.
func WithWatchdog(d time.Duration) Option {
	return func(e *Engine) error {
		if d < 0 {
			return fmt.Errorf("hydee: WithWatchdog(%v): duration must be >= 0", d)
		}
		e.cfg.Watchdog = d
		return nil
	}
}
