package hydee

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"hydee/internal/rollback"
)

// Shared run-selection specs. The hydee command's -store/-store-bps/
// -store-dir and -events/-exporter flags and the hydee-serve HTTP API
// decode the exact same compact forms through the types below, so a spec
// that works on a command line works verbatim in a job submission (and
// vice versa), and a registry addition is selectable everywhere at once.

// StoreSpec is the flag/wire form of a checkpoint-store selection:
// a registry name with an optional geometry ("mem", "sharded:4",
// "ec:4+2", "replica:3" — see StoreSpecForms), a per-link bandwidth
// model and a directory for file-backed stores. The zero value selects
// the free in-memory store.
type StoreSpec struct {
	// Spec selects the store over the registry in the ParseStoreSpec
	// grammar (StoreSpecForms); "" means "mem".
	Spec string `json:"store,omitempty"`
	// BPS models stable-storage write and read bandwidth in bytes/second
	// per store link (0 = free storage).
	BPS float64 `json:"store_bps,omitempty"`
	// Dir is the snapshot directory of file-backed stores.
	Dir string `json:"store_dir,omitempty"`
}

// Bind registers the shared -store, -store-bps and -store-dir flags on fs,
// filling s at parse time. Defaults come from s's current values.
func (s *StoreSpec) Bind(fs *flag.FlagSet) {
	if s.Spec == "" {
		s.Spec = "mem"
	}
	fs.StringVar(&s.Spec, "store", s.Spec,
		"checkpoint store over "+strings.Join(StoreNames(), ", ")+"; forms "+StoreSpecForms)
	fs.Float64Var(&s.BPS, "store-bps", s.BPS,
		"stable-storage bandwidth in bytes/second per store link (0 = free)")
	fs.StringVar(&s.Dir, "store-dir", s.Dir,
		"snapshot directory for -store file (runs reuse it; same-sequence files are overwritten)")
}

// resolve resolves the spec into its registry factory and StoreOptions.
func (s StoreSpec) resolve() (StoreFactory, StoreOptions, error) {
	spec := s.Spec
	if strings.TrimSpace(spec) == "" {
		spec = "mem"
	}
	name, opts, err := ParseStoreSpec(spec)
	if err != nil {
		return nil, StoreOptions{}, err
	}
	mk, err := storeRegistry.lookup(name)
	if err != nil {
		return nil, StoreOptions{}, err
	}
	opts.WriteBPS, opts.ReadBPS = s.BPS, s.BPS
	opts.Dir = s.Dir
	return mk, opts, nil
}

// Probe validates the spec eagerly — the name resolves and the factory
// accepts the options — so a typo fails at startup or submission time,
// not inside the first run of a sweep.
func (s StoreSpec) Probe() error {
	_, err := s.New(nil)
	return err
}

// New builds a fresh store for one run, placing each cluster of topo on
// its own shard of a composite store (see buildStore). topo may be nil
// for unclustered runs. Its signature is ExperimentSpec.NewStore's.
func (s StoreSpec) New(topo *Topology) (Store, error) {
	mk, opts, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return buildStore(mk, opts, topo)
}

// EventStreamSpec is the flag/wire form of the -events/-exporter pair:
// a destination path (a directory gets one file per run) and the registry
// name of the exporter driving it. The zero value streams nothing.
type EventStreamSpec struct {
	// Path receives the event stream: one fan-in file, or one file per
	// run when it names a directory (trailing slash or existing dir).
	// "" disables streaming.
	Path string `json:"events,omitempty"`
	// Exporter is the event-exporter registry name; "" means "jsonl".
	Exporter string `json:"exporter,omitempty"`
}

// Bind registers the shared -events and -exporter flags on fs, filling s
// at parse time. Defaults come from s's current values.
func (s *EventStreamSpec) Bind(fs *flag.FlagSet) {
	if s.Exporter == "" {
		s.Exporter = "jsonl"
	}
	fs.StringVar(&s.Path, "events", s.Path,
		"stream run lifecycle events to this file, or one file per run when the path is a directory (trailing slash or existing dir)")
	fs.StringVar(&s.Exporter, "exporter", s.Exporter,
		"event exporter for -events: "+strings.Join(ExporterNames(), ", "))
}

// exporterName is the registry name with the "jsonl" default applied.
func (s EventStreamSpec) exporterName() string {
	if s.Exporter == "" {
		return "jsonl"
	}
	return s.Exporter
}

// Wire connects the stream to ctx: every run started under the returned
// context streams its lifecycle events to the configured destination.
// The returned function closes and flushes the stream; it is never nil.
// A spec with no Path wires nothing and succeeds.
func (s EventStreamSpec) Wire(ctx context.Context) (context.Context, func() error, error) {
	if s.Path == "" {
		return ctx, func() error { return nil }, nil
	}
	return StreamEvents(ctx, s.exporterName(), s.Path)
}

// SweepSpec is the wire form of one experiment run — what one element of
// a hydee-serve job submission decodes to, with every backend selected by
// registry name. The same StoreSpec and EventStreamSpec back the hydee
// command's flags, so a JSON spec and a flag spelling of the same run are
// literally the same configuration.
type SweepSpec struct {
	// App is the kernel name ("bt", "cg", "ft", "lu", "mg", "sp").
	App string `json:"app"`
	// NP is the rank count.
	NP int `json:"np"`
	// Iters is the timestep count; 0 means 3.
	Iters int `json:"iters,omitempty"`
	// Proto is the protocol-configuration name ("native", "coord",
	// "mlog", "hydee"); "" means "hydee".
	Proto string `json:"proto,omitempty"`
	// Net is the network-model registry name; "" means "myrinet10g".
	Net string `json:"net,omitempty"`
	// Assign is the per-rank cluster assignment (proto "hydee" only).
	Assign []int `json:"assign,omitempty"`
	// Clusters, when Assign is absent, splits the ranks into this many
	// contiguous equal blocks (proto "hydee" only).
	Clusters int `json:"clusters,omitempty"`
	// CheckpointEvery fires a coordinated checkpoint every k-th
	// cooperative checkpoint call; 0 disables checkpointing.
	CheckpointEvery int `json:"ckpt,omitempty"`
	// Stagger offsets the checkpoint schedule per cluster (E5).
	Stagger bool `json:"stagger,omitempty"`
	// FailAt is a failure-injection spec in the ParseFailureSpec grammar
	// ("vt:1.5ms@3; ckpts:2@8,12"); "" injects nothing.
	FailAt string `json:"fail_at,omitempty"`
	// StoreSpec selects the checkpoint store; being embedded, its fields
	// inline into the same JSON object ("store", "store_bps",
	// "store_dir").
	StoreSpec
}

// Experiment resolves the spec through the registries into a runnable
// ExperimentSpec, validating every name and the failure grammar eagerly.
func (s SweepSpec) Experiment() (ExperimentSpec, error) {
	var spec ExperimentSpec
	if s.NP <= 0 {
		return spec, fmt.Errorf("hydee: sweep spec: np must be positive (got %d)", s.NP)
	}
	iters := s.Iters
	switch {
	case iters == 0:
		iters = 3
	case iters < 0:
		return spec, fmt.Errorf("hydee: sweep spec: iters must be positive (got %d)", iters)
	}
	if s.CheckpointEvery < 0 {
		return spec, fmt.Errorf("hydee: sweep spec: ckpt must be >= 0 (got %d)", s.CheckpointEvery)
	}
	kernel, err := KernelByName(s.App)
	if err != nil {
		return spec, err
	}
	protoName := s.Proto
	if protoName == "" {
		protoName = "hydee"
	}
	proto, err := ExperimentProtoByName(protoName)
	if err != nil {
		return spec, err
	}
	spec = ExperimentSpec{
		Kernel:          kernel,
		Params:          KernelParams{NP: s.NP, Iters: iters},
		Proto:           proto,
		CheckpointEvery: s.CheckpointEvery,
		Stagger:         s.Stagger,
	}
	if proto == ProtoHydEE {
		switch {
		case len(s.Assign) > 0:
			if len(s.Assign) != s.NP {
				return spec, fmt.Errorf("hydee: sweep spec: assign covers %d ranks, np is %d", len(s.Assign), s.NP)
			}
			if _, err := rollback.ParseTopology(s.Assign); err != nil {
				return spec, fmt.Errorf("hydee: sweep spec: %w", err)
			}
			spec.Assign = append([]int(nil), s.Assign...)
		case s.Clusters > 0:
			if s.Clusters > s.NP {
				return spec, fmt.Errorf("hydee: sweep spec: %d clusters over %d ranks", s.Clusters, s.NP)
			}
			assign := make([]int, s.NP)
			for r := range assign {
				assign[r] = r * s.Clusters / s.NP
			}
			spec.Assign = assign
		default:
			return spec, fmt.Errorf(`hydee: sweep spec: proto "hydee" needs "assign" or "clusters"`)
		}
	}
	if s.Net != "" {
		if spec.Model, err = ModelByName(s.Net); err != nil {
			return spec, err
		}
	}
	if s.FailAt != "" {
		events, err := ParseFailureSpec(s.FailAt)
		if err != nil {
			return spec, err
		}
		if err := ValidateFailureEvents(events, s.NP); err != nil {
			return spec, err
		}
		spec.Failures = NewFailureSchedule(events...)
	}
	if s.StoreSpec == (StoreSpec{}) {
		return spec, nil
	}
	if err := s.StoreSpec.Probe(); err != nil {
		return spec, err
	}
	spec.NewStore = s.StoreSpec.New
	return spec, nil
}

// Experiments resolves a batch of sweep specs, failing on the first
// invalid one with its index in the error.
func Experiments(specs []SweepSpec) ([]ExperimentSpec, error) {
	out := make([]ExperimentSpec, len(specs))
	for i, s := range specs {
		spec, err := s.Experiment()
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		out[i] = spec
	}
	return out, nil
}
