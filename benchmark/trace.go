package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hydee"
	"hydee/internal/rollback"
	"hydee/internal/transport"
)

// The tracer records spans from outside the program: every span is taken
// by a wrapper around one of the program's public interfaces (protocol,
// engine, the Proc handed to the engine, recovery coordinator, checkpoint
// store, observer, rank program, RunExperiment and Cluster). Nothing in
// the module under test is instrumented.

// spanKind names the layer boundary a span was taken at.
type spanKind uint8

const (
	kProgram      spanKind = iota // hydee.Program: one rank incarnation
	kPreSend                      // rollback.Engine.PreSend
	kAdmit                        // rollback.Engine.Admit
	kOnDeliver                    // rollback.Engine.OnDeliver
	kOnCtl                        // rollback.Engine.OnCtl
	kOnCheckpoint                 // rollback.Engine.OnCheckpoint
	kOnRestore                    // rollback.Engine.OnRestore
	kSendCtl                      // rollback.Proc.SendCtl
	kSendAppRaw                   // rollback.Proc.SendAppRaw
	kWaitCtl                      // rollback.Proc.WaitCtl
	kRecovery                     // rollback.Recovery.Run
	kSave                         // checkpoint.Store.Save
	kLoad                         // checkpoint.Store.Load
	kCluster                      // hydee.Cluster
	numKinds
)

var kindNames = [numKinds]string{
	"program", "engine.PreSend", "engine.Admit", "engine.OnDeliver", "engine.OnCtl",
	"engine.OnCheckpoint", "engine.OnRestore", "proc.SendCtl", "proc.SendAppRaw",
	"proc.WaitCtl", "recovery.Run", "store.Save", "store.Load", "graph.Cluster",
}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	start, end int64
	// child is the time covered by direct child spans, so a span's self
	// time is end-start-child.
	child  int64
	parent int32 // index of the parent span in the same lane, -1 for none
	kind   spanKind
}

// lane is the span stack of one goroutine: a rank incarnation, a recovery
// coordinator, the clustering calls or the supervisor's store loads. Only the
// owning goroutine touches it while the run is live.
type lane struct {
	run   int64
	rank  int // -1 when the lane belongs to no rank
	spans []span
	open  []int32
	// snapBytes lists Snapshot.EncodedSize of every save on this lane.
	snapBytes []int64
	failedOps int64
}

func (l *lane) begin(k spanKind, now int64) int32 {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{start: now, parent: parent, kind: k})
	i := int32(len(l.spans) - 1)
	l.open = append(l.open, i)
	return i
}

func (l *lane) end(i int32, now int64) {
	s := &l.spans[i]
	s.end = now
	l.open = l.open[:len(l.open)-1]
	if s.parent >= 0 {
		l.spans[s.parent].child += now - s.start
	}
}

// tracer owns the lanes of one traced iteration (or one traced set-up).
type tracer struct {
	epoch time.Time
	runs  atomic.Int64

	mu    sync.Mutex
	lanes []*lane
	obs   *phaseObserver
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.obs = &phaseObserver{t: t, runs: map[int64]*runPhases{}}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newLane(run int64, rank int) *lane {
	l := &lane{run: run, rank: rank}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// tracedRun ties the wrappers of one simulated run together: the
// protocol wrapper publishes each rank incarnation's lane so the program
// and store wrappers running on that rank's goroutine nest under it.
type tracedRun struct {
	t     *tracer
	id    int64
	ranks []atomic.Pointer[lane]
	// ownLanes is set when no engine wrapper creates the rank lanes (the
	// harness builds the protocol itself); the program wrapper then opens
	// a lane per incarnation.
	ownLanes bool
}

func (t *tracer) newRun(np int) *tracedRun {
	return &tracedRun{t: t, id: t.runs.Add(1), ranks: make([]atomic.Pointer[lane], np)}
}

// program wraps a rank program in a span covering the incarnation's
// lifetime; engine and store spans on the same goroutine are its
// children.
func (r *tracedRun) program(p hydee.Program) hydee.Program {
	return func(c *hydee.Comm) error {
		l := r.ranks[c.Rank()].Load()
		if r.ownLanes || l == nil {
			l = r.t.newLane(r.id, c.Rank())
		}
		i := l.begin(kProgram, r.t.now())
		err := p(c)
		l.end(i, r.t.now())
		return err
	}
}

// protocol wraps p so every engine, the Proc each engine sees, and every
// recovery coordinator are timed.
func (r *tracedRun) protocol(p hydee.Protocol) hydee.Protocol {
	return tracedProtocol{Protocol: p, run: r}
}

type tracedProtocol struct {
	hydee.Protocol
	run *tracedRun
}

func (p tracedProtocol) NewEngine(rank int, px rollback.Proc) rollback.Engine {
	l := p.run.t.newLane(p.run.id, rank)
	p.run.ranks[rank].Store(l)
	inner := p.Protocol.NewEngine(rank, &tracedProc{Proc: px, l: l, t: p.run.t})
	return &tracedEngine{Engine: inner, l: l, t: p.run.t}
}

func (p tracedProtocol) NewRecovery(rx rollback.RecoveryContext) rollback.Recovery {
	rec := p.Protocol.NewRecovery(rx)
	if rec == nil {
		return nil
	}
	return &tracedRecovery{Recovery: rec, run: p.run}
}

// tracedEngine times the engine hooks. It does not forward the optional
// PhaseReporter extension: only an event recorder reads it, and the
// benchmark installs none.
type tracedEngine struct {
	rollback.Engine
	l *lane
	t *tracer
}

func (e *tracedEngine) PreSend(m *transport.Msg) (rollback.SendVerdict, error) {
	i := e.l.begin(kPreSend, e.t.now())
	v, err := e.Engine.PreSend(m)
	e.l.end(i, e.t.now())
	return v, err
}

func (e *tracedEngine) Admit(m *transport.Msg) bool {
	i := e.l.begin(kAdmit, e.t.now())
	ok := e.Engine.Admit(m)
	e.l.end(i, e.t.now())
	return ok
}

func (e *tracedEngine) OnDeliver(m *transport.Msg) {
	i := e.l.begin(kOnDeliver, e.t.now())
	e.Engine.OnDeliver(m)
	e.l.end(i, e.t.now())
}

func (e *tracedEngine) OnCtl(m *transport.Msg) {
	i := e.l.begin(kOnCtl, e.t.now())
	e.Engine.OnCtl(m)
	e.l.end(i, e.t.now())
}

func (e *tracedEngine) OnCheckpoint(s *hydee.Snapshot) {
	i := e.l.begin(kOnCheckpoint, e.t.now())
	e.Engine.OnCheckpoint(s)
	e.l.end(i, e.t.now())
}

func (e *tracedEngine) OnRestore(s *hydee.Snapshot, round *rollback.RoundInfo) {
	i := e.l.begin(kOnRestore, e.t.now())
	e.Engine.OnRestore(s, round)
	e.l.end(i, e.t.now())
}

// tracedProc times the runtime calls an engine makes: control sends, log
// replays and blocking waits.
type tracedProc struct {
	rollback.Proc
	l *lane
	t *tracer
}

func (p *tracedProc) SendCtl(dst int, body any, wireBytes int) {
	i := p.l.begin(kSendCtl, p.t.now())
	p.Proc.SendCtl(dst, body, wireBytes)
	p.l.end(i, p.t.now())
}

func (p *tracedProc) SendAppRaw(m *transport.Msg) {
	i := p.l.begin(kSendAppRaw, p.t.now())
	p.Proc.SendAppRaw(m)
	p.l.end(i, p.t.now())
}

func (p *tracedProc) WaitCtl(pred func() bool) error {
	i := p.l.begin(kWaitCtl, p.t.now())
	err := p.Proc.WaitCtl(pred)
	p.l.end(i, p.t.now())
	return err
}

type tracedRecovery struct {
	rollback.Recovery
	run *tracedRun
}

func (r *tracedRecovery) Run(round rollback.RoundInfo) (rollback.RecoveryStats, error) {
	l := r.run.t.newLane(r.run.id, -1)
	i := l.begin(kRecovery, r.run.t.now())
	st, err := r.Recovery.Run(round)
	l.end(i, r.run.t.now())
	return st, err
}

// tracedStore times saves on the saving rank's lane, and loads, which the
// runtime's supervisor issues during a restart, on a lane of its own.
type tracedStore struct {
	hydee.Store
	run *tracedRun

	mu    sync.Mutex
	loads *lane
}

func (r *tracedRun) store(st hydee.Store) *tracedStore {
	return &tracedStore{Store: st, run: r, loads: r.t.newLane(r.id, -1)}
}

func (s *tracedStore) Save(sn *hydee.Snapshot, at hydee.Time) (hydee.Time, error) {
	// The runtime saves on the saving rank's goroutine, whose engine
	// (and lane) the protocol wrapper built first.
	l := s.run.ranks[sn.Rank].Load()
	size := sn.EncodedSize()
	i := l.begin(kSave, s.run.t.now())
	end, err := s.Store.Save(sn, at)
	l.end(i, s.run.t.now())
	l.snapBytes = append(l.snapBytes, size)
	if err != nil {
		l.failedOps++
	}
	return end, err
}

func (s *tracedStore) Load(rank, seq int, at hydee.Time) (*hydee.Snapshot, hydee.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.loads.begin(kLoad, s.run.t.now())
	sn, end, ok := s.Store.Load(rank, seq, at)
	s.loads.end(i, s.run.t.now())
	if !ok {
		s.loads.failedOps++
	}
	return sn, end, ok
}

// batch tags the runs a phaseObserver sees by how they were started, so
// the harness and graph metrics cover only the harness runs.
type batch uint8

const (
	batchEngine batch = iota // started by the benchmark through hydee.New
	batchTrace               // hydee.RunExperiment* native trace run feeding the clustering tool
	batchSweep               // hydee.RunExperiments Figure 6 run
)

// phaseObserver is the hydee.Observer the traced runs install: it stamps
// the host time of each lifecycle event, per run, so the runtime's phases
// (run start to end, first checkpoint, failure detection to recovery
// start, recovery round) can be timed without touching the runtime. A
// sweep shares one observer across concurrent runs, hence the lock.
type phaseObserver struct {
	t *tracer

	mu     sync.Mutex
	runs   map[int64]*runPhases
	events int64
}

type runPhases struct {
	batch                 batch
	start, end, firstCkpt int64
	failures              []int64 // pending EvFailure stamps
	detectToRecovery      int64
	recovery              int64
	recoveryStart         int64
	rounds                int64
}

func (o *phaseObserver) OnEvent(ev hydee.RunEvent) { o.record(ev, batchEngine) }

// tagged returns an observer that records into o, tagging every run it
// sees with b.
func (o *phaseObserver) tagged(b batch) hydee.Observer { return batchObserver{o, b} }

type batchObserver struct {
	o *phaseObserver
	b batch
}

func (t batchObserver) OnEvent(ev hydee.RunEvent) { t.o.record(ev, t.b) }

func (o *phaseObserver) record(ev hydee.RunEvent, b batch) {
	now := o.t.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.events++
	r := o.runs[ev.Run]
	if r == nil {
		r = &runPhases{batch: b, firstCkpt: -1}
		o.runs[ev.Run] = r
	}
	switch ev.Kind {
	case hydee.EvRunStart:
		r.start = now
	case hydee.EvCheckpoint:
		if r.firstCkpt < 0 {
			r.firstCkpt = now
		}
	case hydee.EvFailure:
		r.failures = append(r.failures, now)
	case hydee.EvRecoveryStart:
		r.recoveryStart = now
		if len(r.failures) > 0 {
			r.detectToRecovery += now - r.failures[0]
			r.failures = r.failures[1:]
		}
	case hydee.EvRecoveryEnd:
		r.recovery += now - r.recoveryStart
		r.rounds++
	case hydee.EvRunComplete, hydee.EvRunAbort:
		r.end = now
	}
}

// writeSpans writes every span of t as CSV: one line per span, parents
// referenced by (lane, id).
func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "run,rank,lane,id,parent,name,start_ns,end_ns")
	for li, l := range t.lanes {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%d,%s,%d,%d\n", l.run, l.rank, li, i, s.parent, kindNames[s.kind], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
