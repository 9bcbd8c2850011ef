// Package transport implements the reliable FIFO message substrate the
// HydEE protocol stack runs on — with a deterministic virtual-time delivery
// plane.
//
// The system model of the paper (§II-A) assumes a set of processes connected
// by reliable FIFO channels with no synchrony assumption, and fail-stop
// process failures. Here every simulated process owns an Endpoint with an
// unbounded mailbox; Network.Send enqueues a message into the destination
// mailbox immediately (asynchronous, eager buffering — sends never block)
// and stamps it with a virtual arrival time computed by the network cost
// model.
//
// # Deterministic delivery
//
// An endpoint's mailbox is a priority queue ordered by the total delivery
// key (ArriveVT, Src, channel sequence). Per-(src,dst) FIFO is preserved by
// clamping each message's arrival time to be no earlier than its channel
// predecessor's (a FIFO channel admits no overtaking), which makes arrival
// times monotone per channel and the key order FIFO-consistent.
//
// Recv does not hand out the earliest queued message immediately: it gates
// delivery until no in-flight sender can still produce an earlier key. The
// network tracks a conservative action bound per source — a lower bound on
// the virtual time of the source's next send or checkpoint write — and a
// message is deliverable only once every other live source's earliest
// possible arrival (its bound plus the minimum latency) sorts after the
// message's key. Bounds advance when sources send (to their SendVT), when
// they block in Recv (a blocked source can only send after it delivers
// something itself, so its bound rises transitively), and when the
// supervisor attaches, quiesces, kills or restarts them (Publish, Quiesce,
// Kill, RestartAt). The chosen message is therefore a pure function of
// virtual time, independent of goroutine scheduling: gating can delay a
// delivery in real time, never reorder it.
//
// Because any source can send to any destination, the transitive bound has
// a closed form. Let a source's self cap be its frontier while it runs or is
// dead, max(frontier, queue head) while it is blocked (inf with an empty
// queue) and inf while it is idle; let m1 be the smallest cap and T =
// m1 + minLat. Every source's bound is then clamp(T, lo, hi) =
// max(lo, min(T, hi)), with lo = frontier and hi = cap for a blocked source
// (it can only act after delivering something, which arrives no earlier than
// its own head or the earliest stamp the rest of the plane can emit) and
// lo = hi = cap otherwise; the idle latent recovery source (DeclareRecovery)
// is bounded by m1 itself. The plane keeps each source's (lo, hi) span in a
// tournament tree, so a mutation moves one leaf and the smallest bounds come
// from an O(log sources) descent, and it indexes parked waiters by the
// delivery key their gate compares, so a mutation signals exactly the
// waiters whose condition it made true without looking at the others — no
// broadcast herds, and no hand-made wake-up edges to get wrong.
//
// Progress requires strictly positive lookahead, so the network enforces a
// minimum virtual latency of 1ns per hop (zero-cost models otherwise admit
// cycles of processes none of which can be proven unable to produce an
// earlier stamp).
//
// Failures: the kill of a failed process is itself an ordered event in
// virtual time. Doom(rank, d) declares the endpoint dead *as of* virtual
// time d without stopping it immediately: operations at or below the fence
// complete exactly as a failure-free execution would have performed them
// (a queued checkpoint write issued at vt <= d still completes; a message
// arriving at vt <= d is still delivered), while the first wait for
// anything past the fence returns ErrKilled. The gate is victim-aware: a
// doomed endpoint blocked on traffic that provably cannot arrive at or
// below its fence — e.g. a scope peer waiting on the already-stopped
// victim — is reaped with ErrKilled instead of pinning its peers'
// transitive bounds forever (the naive pre-kill drain deadlock). Kill then
// finalizes the death: it marks the endpoint dead, wipes its mailbox,
// unblocks any remaining receiver with ErrKilled and bumps the process's
// incarnation number. Traffic already enqueued at other processes is left
// untouched; see Kill for the rationale.
package transport

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"hydee/internal/netmodel"
	"hydee/internal/vtime"
)

// Kind discriminates the classes of traffic multiplexed on the channels.
type Kind uint8

const (
	// App is an application payload (a Post/Delivery event pair in the
	// terminology of §II-C). Only App messages are counted in the
	// communication matrix and subject to logging.
	App Kind = iota
	// Ctl is protocol control traffic (rollback notifications, recovery
	// process messages, garbage-collection acknowledgments, ...).
	Ctl
	// Marker is an in-band coordinated-checkpoint flush marker; it obeys
	// channel FIFO order with App traffic.
	Marker
)

func (k Kind) String() string {
	switch k {
	case App:
		return "app"
	case Ctl:
		return "ctl"
	case Marker:
		return "marker"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Msg is the wire envelope. Protocol fields (Date, Phase) are piggybacked
// protocol data in the sense of Algorithm 1; WireLen is the modeled
// application payload size used by the network cost model and byte
// accounting, while Data carries the (possibly much smaller) real bytes the
// simulated application computes on.
type Msg struct {
	Src, Dst int
	Kind     Kind
	Tag      int
	// Date is the sender's logical date at the send (Algorithm 1 line 6);
	// it uniquely identifies the message on its channel.
	Date int64
	// Phase is the sender's phase number (Algorithm 1 line 9).
	Phase int
	// Inc is the incarnation of the sending process at send time.
	Inc int32
	// IncSeen is the destination incarnation the sender believed current
	// at send time. A restarted receiver drops application messages with
	// a stale IncSeen: such messages were sent before the sender learned
	// of the rollback and, being inter-cluster, are guaranteed to be in
	// the sender's log and re-sent with the correct ordering.
	IncSeen int32
	// Epoch is the sender's checkpoint sequence number at send time; the
	// coordinated checkpoint uses it to classify in-transit intra-cluster
	// messages as pre- or post-snapshot.
	Epoch int
	// Round is the last recovery round the sender had processed at send
	// time (diagnostics).
	Round int
	// WireLen is the modeled payload size in bytes. If zero it defaults to
	// len(Data) at send time.
	WireLen int
	// PiggyLen is the modeled size of protocol data carried inline as an
	// extra segment of this message (small-message strategy of §V-A).
	PiggyLen int
	// Data is the actual payload.
	Data []byte
	// CtlBody carries a typed protocol control structure for Kind == Ctl.
	CtlBody any
	// SendVT and ArriveVT are the virtual send and earliest-delivery times.
	// ArriveVT is clamped so it is monotone per (src,dst) channel.
	SendVT, ArriveVT vtime.Time

	// chSeq is the message's position on its (src,dst) channel, the final
	// tiebreak of the delivery key. It is assigned under the delivery-plane
	// lock at enqueue, so it is deterministic per channel (each sender is a
	// single goroutine).
	chSeq uint64
}

// Wire returns the modeled number of bytes this message occupies on the wire.
func (m *Msg) Wire() int { return m.WireLen + m.PiggyLen }

// keyLess orders messages by the total delivery key (ArriveVT, Src, chSeq).
func keyLess(a, b *Msg) bool {
	if a.ArriveVT != b.ArriveVT {
		return a.ArriveVT < b.ArriveVT
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.chSeq < b.chSeq
}

// ErrKilled is returned by receive operations on a killed endpoint.
var ErrKilled = errors.New("transport: process killed")

// infTime is the "can never act again" bound.
const infTime = vtime.Time(math.MaxInt64)

// srcState classifies what a source may still do, for the delivery gate.
type srcState uint8

const (
	// stRunning: an actor is attached and executing; it may send at any
	// virtual time >= its frontier.
	stRunning srcState = iota
	// stBlocked: the actor is blocked in Recv at clock == frontier; it can
	// only send after it delivers a message itself.
	stBlocked
	// stIdle: no actor is attached (service endpoint between recovery
	// rounds, reaped process); it cannot send until reattached.
	stIdle
	// stDead: killed; it cannot send until restarted, and a restart resumes
	// no earlier than the stale frontier.
	stDead
)

// waitKind says what an endpoint's goroutine is parked on, so the refresh
// can signal exactly the waiters whose condition now holds.
type waitKind uint8

const (
	wNone waitKind = iota
	wRecv
	wTurn
)

// msgHeap is a min-heap of messages by delivery key.
type msgHeap []*Msg

func (h msgHeap) Len() int           { return len(h) }
func (h msgHeap) Less(i, j int) bool { return keyLess(h[i], h[j]) }
func (h msgHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)        { *h = append(*h, x.(*Msg)) }
func (h *msgHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return m
}

// Endpoint is the per-process mailbox. All mutable state is guarded by the
// owning Network's delivery-plane lock.
type Endpoint struct {
	id int
	n  *Network
	// pos is the endpoint's index in the id-sorted Network.epList, and so
	// its leaf in the bound tree.
	pos int

	q    msgHeap
	dead bool
	// doomVT is the virtual time this endpoint is declared to die at
	// (infTime = not doomed). A doomed endpoint keeps operating at or
	// below the fence — in-flight work up to the failure's detection time
	// completes deterministically — and gets ErrKilled at its first wait
	// for anything provably past it.
	doomVT vtime.Time
	// droppedWhileDead counts arrivals discarded because the process was
	// dead; exposed for tests and metrics.
	droppedWhileDead int

	state    srcState
	frontier vtime.Time

	// cond parks this endpoint's goroutine (shared delivery-plane lock);
	// waiting/turnVT describe what it waits for.
	cond    *sync.Cond
	waiting waitKind
	turnVT  vtime.Time

	// Wake-index membership while parked and not yet signalled: key is the
	// delivery key the waiter's gate compares, keySrc the endpoint whose
	// keyed heap holds it (nil for an unregistered source), hidx its
	// positions in Network.waiters and keySrc.keyed (-1 when absent).
	// wokenIdx is its position in Network.woken once signalled since it
	// parked (-1 otherwise).
	key      waitKey
	keySrc   *Endpoint
	hidx     [2]int
	wokenIdx int
	// keyed holds the parked waiters whose key comes from this endpoint:
	// their gate skips this source's own bound.
	keyed waitHeap

	// chans holds the state of every channel into this endpoint, by source.
	chans map[int]channel
}

// channel is the state of one (src, dst) FIFO channel, kept by dst: the
// last clamped arrival time and the sequence counter (FIFO-consistency of
// the key order), and the App traffic accounting of the pair.
type channel struct {
	arrive vtime.Time
	seq    uint64
	stat   PairStat
}

func newEndpoint(n *Network, id int, state srcState) *Endpoint {
	e := &Endpoint{
		id:       id,
		n:        n,
		state:    state,
		doomVT:   infTime,
		hidx:     [2]int{-1, -1},
		wokenIdx: -1,
		keyed:    waitHeap{slot: 1},
		chans:    make(map[int]channel),
	}
	e.cond = sync.NewCond(&n.dmu)
	return e
}

// ID reports the endpoint's identifier.
func (e *Endpoint) ID() int { return e.id }

// woken reports whether e's parked goroutine has been signalled since it
// parked.
func (e *Endpoint) woken() bool { return e.wokenIdx >= 0 }

// span is the endpoint's (lo, hi) pair in the bound tree: its bound is
// clamp(T, lo, hi) for the plane's lookahead target T (see the package
// comment). hi is the self cap.
func (e *Endpoint) span() (lo, hi vtime.Time) {
	switch e.state {
	case stRunning, stDead:
		return e.frontier, e.frontier
	case stBlocked:
		if len(e.q) == 0 {
			return e.frontier, infTime
		}
		return e.frontier, max(e.frontier, e.q[0].ArriveVT)
	}
	return infTime, infTime
}

// Recv blocks until the earliest message in virtual-time key order is
// deliverable — i.e. no in-flight sender can still produce an earlier stamp
// — and returns it. now is the caller's current virtual clock; while blocked
// the endpoint's send frontier is pinned there, since the caller cannot
// send before it delivers. It returns ErrKilled if the endpoint is (or
// becomes) dead.
func (e *Endpoint) Recv(now vtime.Time) (*Msg, error) {
	n := e.n
	n.dmu.Lock()
	defer n.dmu.Unlock()
	if e.dead {
		return nil, ErrKilled
	}
	e.blockLocked(now)
	for {
		if m, ok, err := e.pollLocked(now); ok {
			return m, err
		}
		n.parkLocked(e, wRecv)
		e.cond.Wait()
		n.unparkLocked(e)
	}
}

// blockLocked commits e to the blocked state at clock now. Recv does it
// BEFORE evaluating the gate: the caller cannot send until Recv returns,
// and the transitive bounds must reflect that — evaluating while still
// marked running would let the receiver's own stale frontier hold the
// plane's bounds below its head's stamp and fail a check its own blocking
// satisfies.
func (e *Endpoint) blockLocked(now vtime.Time) {
	if e.state == stBlocked && e.frontier >= now {
		return
	}
	e.state = stBlocked
	if e.frontier < now {
		e.frontier = now
	}
	e.n.updateLocked(e)
	e.n.refreshLocked(nil)
}

// pollLocked is one evaluation of a blocked Recv. ok reports that the wait
// is over, with the delivered message or ErrKilled; otherwise the caller
// parks until the plane signals it.
func (e *Endpoint) pollLocked(now vtime.Time) (m *Msg, ok bool, err error) {
	n := e.n
	if e.dead {
		return nil, true, ErrKilled
	}
	if len(e.q) > 0 && n.gatePassLocked(e, e.q[0]) {
		if n.pastFenceLocked(e, e.q[0]) {
			// The gate proves the next delivery would happen past the
			// death fence; the process is dead by then.
			return nil, true, e.reapLocked()
		}
		m := heap.Pop(&e.q).(*Msg)
		e.deliveredLocked(m, now)
		return m, true, nil
	}
	if n.doomReapLocked(e) {
		return nil, true, e.reapLocked()
	}
	return nil, false, nil
}

// pastFenceLocked reports whether delivering m to the doomed endpoint e
// would reach past its death fence. The boundary is doomVT plus one
// minimum-latency hop: the messages already on the wire the instant the
// failure was detected — anything the gate could have admitted while the
// stopped victim's stale frontier still constrained the plane — are part
// of the drain, so the outcome never depends on how quickly the
// supervisor's doom declaration raced the delivery.
func (n *Network) pastFenceLocked(e *Endpoint, m *Msg) bool {
	return e.doomVT < infTime && m.ArriveVT > e.doomVT.Add(n.minLat)
}

// reapLocked ends a doomed endpoint's wait: the caller's goroutine will
// unwind with ErrKilled, so the endpoint stops constraining the delivery
// gate (the supervisor finalizes the death with Kill once the goroutine is
// reaped). Without this transition a doomed scope peer blocked on the dead
// victim would pin its peers' transitive bounds forever.
func (e *Endpoint) reapLocked() error {
	if !e.dead && e.state != stIdle {
		e.state = stIdle
		e.n.updateLocked(e)
		e.n.refreshLocked(nil)
	}
	return ErrKilled
}

// deliveredLocked records the state transition of a successful pop: the receiver
// runs again, and — for Ctl and Marker messages, which merge the receiver's
// clock to the arrival stamp before it can act — its frontier advances to
// the delivered stamp. App deliveries guarantee only the clock the receiver
// blocked with (a non-matching message is buffered without a merge).
func (e *Endpoint) deliveredLocked(m *Msg, now vtime.Time) {
	e.state = stRunning
	f := now
	if m.Kind != App && m.ArriveVT > f {
		f = m.ArriveVT
	}
	if f > e.frontier {
		e.frontier = f
	}
	e.n.updateLocked(e)
	e.n.refreshLocked(e)
}

// TryRecv returns the earliest deliverable message without blocking. ok
// reports whether one was available (queued and not gated).
func (e *Endpoint) TryRecv(now vtime.Time) (m *Msg, ok bool, err error) {
	n := e.n
	n.dmu.Lock()
	defer n.dmu.Unlock()
	if e.dead {
		return nil, false, ErrKilled
	}
	if e.frontier < now {
		e.frontier = now
		n.updateLocked(e)
		n.refreshLocked(nil)
	}
	if len(e.q) == 0 || !n.gatePassLocked(e, e.q[0]) {
		if n.doomReapLocked(e) {
			return nil, false, e.reapLocked()
		}
		return nil, false, nil
	}
	if n.pastFenceLocked(e, e.q[0]) {
		return nil, false, e.reapLocked()
	}
	m = heap.Pop(&e.q).(*Msg)
	e.deliveredLocked(m, now)
	return m, true, nil
}

// Pending reports the number of queued messages (diagnostics only).
func (e *Endpoint) Pending() int {
	e.n.dmu.Lock()
	defer e.n.dmu.Unlock()
	return len(e.q)
}

// DroppedWhileDead reports how many arrivals were discarded while the
// endpoint was dead.
func (e *Endpoint) DroppedWhileDead() int {
	e.n.dmu.Lock()
	defer e.n.dmu.Unlock()
	return e.droppedWhileDead
}

// PairStat accumulates traffic accounting for one ordered process pair.
type PairStat struct {
	Msgs       int64
	Bytes      int64 // modeled application payload bytes
	PiggyBytes int64 // modeled inline protocol bytes
}

// boundRef is one (action bound, source id) pair, ordered lexicographically.
type boundRef struct {
	b  vtime.Time
	id int
}

func (r boundRef) less(s boundRef) bool {
	return r.b < s.b || (r.b == s.b && r.id < s.id)
}

// insertLow enters r into the sorted triple low if it sorts before the
// third entry, dropping that entry.
func insertLow(low *[3]boundRef, r boundRef) {
	for k := range low {
		if r.less(low[k]) {
			copy(low[k+1:], low[k:2])
			low[k] = r
			return
		}
	}
}

// waitKey is the (arrival, source) delivery key a parked waiter's gate
// compares with the plane's bounds: its queue head for Recv, and
// (turnVT+minLat, own id) for AwaitTurn — a turn at vt is granted exactly
// when a message from the waiter itself arriving one hop after vt would be.
type waitKey struct {
	a   vtime.Time
	src int
}

// waitHeap is a min-heap of parked waiters by key; slot selects which of
// the endpoints' two heap positions (Endpoint.hidx) it maintains.
type waitHeap struct {
	es   []*Endpoint
	slot int
}

func (h *waitHeap) Len() int { return len(h.es) }
func (h *waitHeap) Less(i, j int) bool {
	a, b := h.es[i].key, h.es[j].key
	return a.a < b.a || (a.a == b.a && a.src < b.src)
}
func (h *waitHeap) Swap(i, j int) {
	h.es[i], h.es[j] = h.es[j], h.es[i]
	h.es[i].hidx[h.slot] = i
	h.es[j].hidx[h.slot] = j
}
func (h *waitHeap) Push(x any) {
	e := x.(*Endpoint)
	e.hidx[h.slot] = len(h.es)
	h.es = append(h.es, e)
}
func (h *waitHeap) Pop() any {
	old := h.es
	e := old[len(old)-1]
	old[len(old)-1] = nil
	h.es = old[:len(old)-1]
	e.hidx[h.slot] = -1
	return e
}

// boundTree is an array-backed tournament tree over the endpoints in
// epList (id) order. Leaf p holds endpoint p's span (inf, inf for padding);
// every node holds the minimum lo and the minimum hi over its subtree, each
// with the leftmost leaf attaining it — so the root's hi is the plane's
// smallest cap m1 and its hiArg the first endpoint attaining it.
type boundTree struct {
	size         int // leaves: a power of two >= the endpoint count
	lo, hi       []vtime.Time
	loArg, hiArg []int32
}

// newBoundTree builds the tree over eps, numbering each endpoint's leaf.
func newBoundTree(eps []*Endpoint) boundTree {
	size := 1
	for size < len(eps) {
		size <<= 1
	}
	t := boundTree{
		size:  size,
		lo:    make([]vtime.Time, 2*size),
		hi:    make([]vtime.Time, 2*size),
		loArg: make([]int32, 2*size),
		hiArg: make([]int32, 2*size),
	}
	for p := 0; p < size; p++ {
		i := size + p
		t.lo[i], t.hi[i] = infTime, infTime
		if p < len(eps) {
			eps[p].pos = p
			t.lo[i], t.hi[i] = eps[p].span()
		}
		t.loArg[i], t.hiArg[i] = int32(p), int32(p)
	}
	for i := size - 1; i > 0; i-- {
		t.pull(i)
	}
	return t
}

// pull recomputes inner node i from its children (ties go left, to the
// smaller ids) and reports whether the node changed.
func (t *boundTree) pull(i int) bool {
	l, r := 2*i, 2*i+1
	lo, loArg := t.lo[l], t.loArg[l]
	if t.lo[r] < lo {
		lo, loArg = t.lo[r], t.loArg[r]
	}
	hi, hiArg := t.hi[l], t.hiArg[l]
	if t.hi[r] < hi {
		hi, hiArg = t.hi[r], t.hiArg[r]
	}
	if lo == t.lo[i] && loArg == t.loArg[i] && hi == t.hi[i] && hiArg == t.hiArg[i] {
		return false
	}
	t.lo[i], t.loArg[i], t.hi[i], t.hiArg[i] = lo, loArg, hi, hiArg
	return true
}

// bound is the smallest action bound over node i's leaves for lookahead
// target target: clamp(target, lo, hi) of the node's minimum lo and hi.
// It is exact, not just a lower bound — if hi < target the hi-argmin
// attains hi, if lo > target the lo-argmin attains lo, and otherwise every
// leaf has hi >= target and the lo-argmin attains target.
func (t *boundTree) bound(i int, target vtime.Time) vtime.Time {
	return max(t.lo[i], min(target, t.hi[i]))
}

// Network connects the endpoints and applies the cost model. It owns the
// deterministic delivery plane: one lock guards every mailbox, the bound
// tree over the sources' spans and the wake index of parked waiters. Each
// mutation moves the leaves of the endpoints it changed and ends in
// refreshLocked, which keeps low3 current and signals exactly the waiters
// whose condition now holds.
type Network struct {
	model netmodel.Model
	// minLat is the smallest latency any message can observe (>= 1ns),
	// the lookahead of the conservative delivery gate.
	minLat vtime.Duration

	dmu sync.Mutex
	eps map[int]*Endpoint
	// epList holds the endpoints sorted by id; an endpoint's index is its
	// leaf in tree.
	epList []*Endpoint
	tree   boundTree
	// low3 holds the three lexicographically smallest finite (bound, id)
	// pairs: any gate's relevant minimum — which excludes at most the
	// receiver and the head's source — is among them. updateLocked keeps
	// it current, or sets dirty when it needs a full descent. seen3 is the
	// low3 the wake index was last reconciled with.
	low3  [3]boundRef
	seen3 [3]boundRef
	dirty bool
	// latent designates the recovery endpoint as a latent source: while
	// it is idle, its bound is the plane's minimum cap rather than
	// infinity. A failure detected at a victim's clock c spawns recovery
	// stamps at >= c + minLat, and c is always >= the victim's cap at
	// every earlier pop — so the latent bound makes the plane anticipate a
	// potential recovery round and never admit a stamp a future round
	// could undercut. nil when unset (raw transport use).
	latent *Endpoint

	// The wake index. waiters holds every parked, not yet signalled waiter
	// with a key (a Recv waiter with a queued head, an AwaitTurn waiter);
	// each is also in its key source's keyed heap. doomed lists the
	// endpoints with a death fence, woken the waiters signalled since they
	// parked, and parked counts every goroutine parked in Recv or
	// AwaitTurn, signalled or not.
	waiters waitHeap
	doomed  []*Endpoint
	woken   []*Endpoint
	parked  int
	// visits counts bound-tree node visits (leaf updates and descents);
	// tests read it to check a mutation's O(log np) cost.
	visits uint64

	inc []int32 // incarnation per application rank
	np  int
	// pairs lists the (src, dst) ranks of every channel between
	// application ranks, in creation order: Stats densifies their App
	// traffic accounting.
	pairs [][2]int
}

// NewNetwork creates a network with application endpoints 0..np-1, all
// running with a zero send frontier.
func NewNetwork(np int, model netmodel.Model) *Network {
	lat := model.Latency(0)
	if lat < 1 {
		lat = 1
	}
	n := &Network{
		model:  model,
		minLat: lat,
		eps:    make(map[int]*Endpoint, np+2),
		inc:    make([]int32, np),
		np:     np,
		dirty:  true,
	}
	for i := 0; i < np; i++ {
		e := newEndpoint(n, i, stRunning)
		n.eps[i] = e
		n.epList = append(n.epList, e)
	}
	n.tree = newBoundTree(n.epList)
	//hydee:allow lockdiscipline(constructor: the network is not shared yet, no lock needed)
	n.refreshLocked(nil)
	return n
}

// NP reports the number of application ranks.
func (n *Network) NP() int { return n.np }

// MinLatency reports the minimum virtual latency of the plane (>= 1ns) —
// the delivery gate's lookahead. The supervisor stamps a failure round's
// recovery traffic one such hop after the detection time, so the attached
// recovery endpoint's bound never holds the drain at the fence itself.
func (n *Network) MinLatency() vtime.Duration { return n.minLat }

// Model exposes the cost model in use.
func (n *Network) Model() netmodel.Model { return n.model }

// Endpoint returns the endpoint with the given id, creating it if it is a
// non-application (service) id such as the recovery process. Service
// endpoints start idle: they buffer arrivals but are known not to send
// until attached with Publish.
func (n *Network) Endpoint(id int) *Endpoint {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.endpointLocked(id)
}

// endpointLocked returns (creating if needed) the endpoint with id. A new
// endpoint is idle, so it moves no bound: it takes its place in id order
// and the tree is rebuilt around it, without a refresh.
func (n *Network) endpointLocked(id int) *Endpoint {
	e, ok := n.eps[id]
	if !ok {
		e = newEndpoint(n, id, stIdle)
		n.eps[id] = e
		i, _ := slices.BinarySearchFunc(n.epList, id, func(x *Endpoint, want int) int { return cmp.Compare(x.id, want) })
		n.epList = slices.Insert(n.epList, i, e)
		n.tree = newBoundTree(n.epList)
	}
	return e
}

// DeclareRecovery registers id as the latent recovery source: even while no
// recovery round is active, the delivery gate assumes a failure could be
// detected at the plane's minimum cap and stamps from id could follow. The
// runtime calls it once at startup for the recovery endpoint, before any
// traffic flows.
func (n *Network) DeclareRecovery(id int) {
	n.dmu.Lock()
	n.latent = n.endpointLocked(id)
	n.dirty = true
	n.refreshLocked(nil)
	n.dmu.Unlock()
}

// Incs returns a copy of the current incarnation of every application rank.
func (n *Network) Incs() []int32 {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return append([]int32(nil), n.inc...)
}

// IncOf reports the current incarnation of an application rank. Service
// endpoints always report zero.
func (n *Network) IncOf(rank int) int32 {
	if rank < 0 || rank >= n.np {
		return 0
	}
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.inc[rank]
}

// Send stamps and enqueues m. The caller must have set Src, Dst and advanced
// its clock past the send overhead; SendVT is the sender's clock after that.
// WireLen defaults to len(Data). Sending also publishes the sender's
// frontier: its next send cannot predate this one.
func (n *Network) Send(m *Msg) error {
	if m.WireLen == 0 {
		m.WireLen = len(m.Data)
	}
	lat := n.model.Latency(m.Wire())
	if lat < n.minLat {
		lat = n.minLat
	}

	n.dmu.Lock()
	defer n.dmu.Unlock()
	dst, ok := n.eps[m.Dst]
	if !ok {
		return fmt.Errorf("transport: send to unknown endpoint %d", m.Dst)
	}
	if n.isRank(m.Src) {
		m.Inc = n.inc[m.Src]
	}
	// The sender cannot send again before this message's send time; a
	// source that demonstrably sends is live, so an idle one is promoted.
	if src, ok := n.eps[m.Src]; ok && src.state != stDead {
		if m.SendVT > src.frontier {
			src.frontier = m.SendVT
		}
		if src.state == stIdle {
			src.state = stRunning
		}
		n.updateLocked(src)
	}

	m.ArriveVT = m.SendVT.Add(lat)
	pair := n.isRank(m.Src) && n.isRank(m.Dst)
	ch, ok := dst.chans[m.Src]
	if !ok && pair {
		n.pairs = append(n.pairs, [2]int{m.Src, m.Dst})
	}
	if m.Kind == App && pair {
		ch.stat.Msgs++
		ch.stat.Bytes += int64(m.WireLen)
		ch.stat.PiggyBytes += int64(m.PiggyLen)
	}
	// FIFO channels admit no overtaking: clamp the arrival to the channel
	// predecessor's, making arrival times monotone per (src,dst) and the
	// delivery key order FIFO-consistent. The channel state advances even
	// when the destination is dead: FIFO order is a property of the
	// channel, not of the receiver's liveness, and a restarted receiver
	// continues it — otherwise whether a send landed just before the kill
	// (buffered, then wiped) or just after (dropped) would leave different
	// clamps behind and the restarted incarnation's arrival stamps would
	// depend on that real-time race.
	if m.ArriveVT < ch.arrive {
		m.ArriveVT = ch.arrive
	}
	ch.arrive = m.ArriveVT
	ch.seq++
	m.chSeq = ch.seq
	dst.chans[m.Src] = ch
	if dst.dead {
		dst.droppedWhileDead++
		n.refreshLocked(nil) // the sender's frontier still advanced
		return nil
	}
	heap.Push(&dst.q, m)
	if dst.q[0] != m {
		// Queued behind the head: dst's span and wait are unchanged.
		n.refreshLocked(nil)
		return nil
	}
	n.updateLocked(dst)
	n.refreshLocked(dst)
	return nil
}

// isRank reports whether id is an application rank.
func (n *Network) isRank(id int) bool { return id >= 0 && id < n.np }

// Publish raises id's send frontier to vt and marks it running. Actors call
// it when their clock advances without a transport operation (local compute,
// checkpoint I/O) and the supervisor calls it to attach a service actor; a
// stale frontier never reorders deliveries, it only delays them in real
// time.
func (n *Network) Publish(id int, vt vtime.Time) {
	n.dmu.Lock()
	e := n.endpointLocked(id)
	if e.state != stDead && (e.state != stRunning || vt > e.frontier) {
		e.state = stRunning
		if vt > e.frontier {
			e.frontier = vt
		}
		n.updateLocked(e)
		n.refreshLocked(nil)
	}
	n.dmu.Unlock()
}

// Quiesce marks id as unable to send until reattached (Publish, Restart):
// its queue keeps buffering, but the delivery gate stops waiting on it. The
// supervisor quiesces the recovery endpoint between rounds and process
// endpoints whose goroutine has exited.
func (n *Network) Quiesce(id int) {
	n.dmu.Lock()
	e := n.endpointLocked(id)
	if e.state != stDead && e.state != stIdle {
		e.state = stIdle
		n.updateLocked(e)
		n.refreshLocked(nil)
	}
	n.dmu.Unlock()
}

// AwaitTurn blocks until no other live source can still act (send or issue
// a checkpoint write) at a virtual time before (vt, id), pinning id's own
// frontier at vt meanwhile. The checkpoint runtime brackets stable-storage
// writes with it so shared-bandwidth contention resolves in virtual-time
// order, not real-time race order. A doomed endpoint's turn at or below its
// death fence is still granted — an in-flight checkpoint write issued
// before the failure's detection time completes — while a turn past the
// fence returns ErrKilled: the write is cancelled deterministically.
func (n *Network) AwaitTurn(id int, vt vtime.Time) error {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	e := n.endpointLocked(id)
	e.turnVT = vt
	for {
		if ok, err := n.pollTurnLocked(e); ok {
			return err
		}
		n.parkLocked(e, wTurn)
		e.cond.Wait()
		n.unparkLocked(e)
	}
}

// pollTurnLocked is one evaluation of AwaitTurn at e.turnVT. ok reports that
// the wait is over — the turn is granted (nil) or cancelled (ErrKilled);
// otherwise the caller parks until the plane signals it.
func (n *Network) pollTurnLocked(e *Endpoint) (ok bool, err error) {
	vt := e.turnVT
	if e.dead {
		return true, ErrKilled
	}
	if vt > e.doomVT {
		return true, e.reapLocked()
	}
	if e.state != stRunning || e.frontier < vt {
		e.state = stRunning
		if vt > e.frontier {
			e.frontier = vt
		}
		n.updateLocked(e)
		n.refreshLocked(nil)
	}
	return n.turnPassLocked(e, vt), nil
}

// updateLocked moves e's leaf to its current span and keeps low3 current.
// Every mutation of an endpoint's state, frontier or queue head calls it
// before refreshLocked; the walk to the root stops at the first node the
// move leaves unchanged. While m1 stays put, e's is the only bound that
// moved (moveLocked); a move of m1 shifts every blocked source's bound,
// and the latent source's bound follows m1 rather than its leaf, so those
// leave low3 to a full descent.
func (n *Network) updateLocked(e *Endpoint) {
	if e == n.latent {
		n.dirty = true
	}
	t := &n.tree
	i := t.size + e.pos
	lo, hi := e.span()
	if t.lo[i] == lo && t.hi[i] == hi {
		return
	}
	m1, target := t.hi[1], n.targetLocked()
	old := boundRef{t.bound(i, target), e.id}
	t.lo[i], t.hi[i] = lo, hi
	for j := i >> 1; j > 0; j >>= 1 {
		n.visits++
		if !t.pull(j) {
			break
		}
	}
	switch {
	case n.dirty:
	case t.hi[1] != m1:
		n.dirty = true
	default:
		n.moveLocked(old, boundRef{t.bound(i, target), e.id})
	}
}

// moveLocked updates low3 for one source's bound moving from old to now,
// every other bound unchanged: the source's entry leaves low3 and now
// enters it if it sorts among the three smallest. Only an entry that
// worsens while a finite third entry could be overtaken by a source
// outside low3 needs the full descent.
func (n *Network) moveLocked(old, now boundRef) {
	low := &n.low3
	k := slices.Index(low[:], old)
	switch {
	case old == now:
		return
	case k < 0:
		if !now.less(low[2]) {
			return
		}
		k = 2
	case old.less(now) && low[2].b < infTime && (k == 2 || low[2].less(now)):
		n.dirty = true
		return
	}
	copy(low[k:], low[k+1:])
	low[2] = boundRef{infTime, -1}
	if now.b < infTime {
		insertLow(low, now)
	}
}

// targetLocked is the lookahead target T = m1 + minLat every blocked
// source's bound is clamped towards (inf while no source has a finite cap).
func (n *Network) targetLocked() vtime.Time {
	if m1 := n.tree.hi[1]; m1 < infTime {
		return m1.Add(n.minLat)
	}
	return infTime
}

// boundLocked derives e's action bound — no send or checkpoint write by e
// can be issued before it — with the clamp the gate's low3 descent applies
// to tree nodes.
func (n *Network) boundLocked(e *Endpoint) vtime.Time {
	if e == n.latent && e.state == stIdle {
		return n.tree.hi[1]
	}
	return n.tree.bound(n.tree.size+e.pos, n.targetLocked())
}

// low3Locked computes the three smallest finite (bound, id) pairs: three
// exclusion descents of the bound tree (epList order is id order, so a
// leftmost leaf is the smallest id), merged with the idle latent source's
// bound m1, which its leaf does not carry.
func (n *Network) low3Locked() [3]boundRef {
	low := [3]boundRef{{infTime, -1}, {infTime, -1}, {infTime, -1}}
	t := &n.tree
	target := n.targetLocked()
	x, y := -1, -1
	for k := range low {
		v, i := n.minLocked(1, 0, t.size, x, y, target)
		if v == infTime {
			break
		}
		p := n.resolveLocked(i, v, target)
		low[k] = boundRef{v, n.epList[p].id}
		x, y = p, x
	}
	if l := n.latent; l != nil && l.state == stIdle && t.hi[1] < infTime {
		insertLow(&low, boundRef{t.hi[1], l.id})
	}
	return low
}

// minLocked returns the smallest bound over the leaves of node i — which
// covers leaf positions [l, r) — other than positions x and y, with a node
// attaining it that contains neither (ties go left, to the smaller ids).
// Only nodes holding an excluded leaf are split, so it visits O(log np)
// nodes.
func (n *Network) minLocked(i, l, r, x, y int, target vtime.Time) (vtime.Time, int) {
	n.visits++
	if (x < l || x >= r) && (y < l || y >= r) {
		return n.tree.bound(i, target), i
	}
	if r-l == 1 {
		return infTime, i
	}
	m := (l + r) / 2
	va, ia := n.minLocked(2*i, l, m, x, y, target)
	vb, ib := n.minLocked(2*i+1, m, r, x, y, target)
	if vb < va {
		return vb, ib
	}
	return va, ia
}

// resolveLocked returns the leftmost leaf of node i attaining its bound v
// (see boundTree.bound): the hi-argmin below target, the lo-argmin above
// it, and at target the leftmost leaf with lo <= target.
func (n *Network) resolveLocked(i int, v, target vtime.Time) int {
	t := &n.tree
	switch {
	case v < target:
		return int(t.hiArg[i])
	case v > target:
		return int(t.loArg[i])
	}
	for i < t.size {
		n.visits++
		i *= 2
		if t.lo[i] > target {
			i++
		}
	}
	return i - t.size
}

// refreshLocked ends every delivery-plane mutation, after the mutator moved
// the leaves of the endpoints it changed (updateLocked). touched, if not
// nil, is an endpoint whose own wait inputs — queue head, death, fence —
// the mutation changed. If low3 changed, every waiter it now admits is
// signalled through the wake index (wakeLocked); otherwise no waiter's
// condition has a changed input except touched's, so only touched is
// re-checked. A waiter is signalled once, on the false-to-true
// transition, and leaves the index until it parks again.
func (n *Network) refreshLocked(touched *Endpoint) {
	recheck := touched != nil && touched.waiting != wNone && !touched.woken()
	if recheck {
		n.unindexLocked(touched) // its key may be stale
	}
	if n.dirty {
		n.dirty = false
		n.low3 = n.low3Locked()
	}
	if n.low3 != n.seen3 {
		n.seen3 = n.low3
		n.wakeLocked()
	}
	if recheck && !touched.woken() {
		if n.readyLocked(touched) {
			n.signalLocked(touched)
		} else {
			n.indexLocked(touched)
		}
	}
}

// wakeLocked signals every indexed waiter the new low3 admits. A waiter's
// gate compares its key with the first low3 entry that is neither itself
// nor its key's source, so: waiters keyed on no low3 source compare with
// low3[0] and come off the global heap in key order; waiters keyed on a
// low3 source s compare with the first entry other than s and come off
// s's keyed heap; the at most three waiters that are low3 sources
// themselves, and the doomed ones (whose reap condition is not a key
// comparison), are checked one by one. Each pop is a waiter whose
// condition holds — the first entry a gate does not skip never sorts
// before the threshold it was popped with.
func (n *Network) wakeLocked() {
	for len(n.waiters.es) > 0 && n.admits(n.low3[0], n.waiters.es[0].key) {
		n.signalLocked(n.waiters.es[0])
	}
	for _, r := range n.low3 {
		if r.b == infTime {
			break
		}
		s := n.eps[r.id]
		rs := n.firstLocked(s.id, s.id)
		for len(s.keyed.es) > 0 && n.admits(rs, s.keyed.es[0].key) {
			n.signalLocked(s.keyed.es[0])
		}
		n.checkLocked(s)
	}
	for _, e := range n.doomed {
		n.checkLocked(e)
	}
}

// readyLocked reports whether parked e's wait condition holds: the one its
// Recv or AwaitTurn loop would act on.
func (n *Network) readyLocked(e *Endpoint) bool {
	switch e.waiting {
	case wRecv:
		return e.dead || (len(e.q) > 0 && n.gatePassLocked(e, e.q[0])) || n.doomReapLocked(e)
	case wTurn:
		return e.dead || e.turnVT > e.doomVT || n.turnPassLocked(e, e.turnVT)
	}
	return false
}

// checkLocked signals e if it is parked, not yet signalled, and ready.
func (n *Network) checkLocked(e *Endpoint) {
	if e.waiting != wNone && !e.woken() && n.readyLocked(e) {
		n.signalLocked(e)
	}
}

// parkLocked records that e's goroutine is about to wait for kind, with
// its condition false, and indexes it.
func (n *Network) parkLocked(e *Endpoint, kind waitKind) {
	e.waiting = kind
	n.parked++
	n.indexLocked(e)
}

// unparkLocked records that e's goroutine resumed.
func (n *Network) unparkLocked(e *Endpoint) {
	if e.woken() {
		last := n.woken[len(n.woken)-1]
		n.woken[e.wokenIdx], last.wokenIdx = last, e.wokenIdx
		n.woken = n.woken[:len(n.woken)-1]
		e.wokenIdx = -1
	} else {
		n.unindexLocked(e)
	}
	e.waiting = wNone
	n.parked--
}

// signalLocked wakes parked e and moves it from the wake index to woken.
func (n *Network) signalLocked(e *Endpoint) {
	n.unindexLocked(e)
	e.wokenIdx = len(n.woken)
	n.woken = append(n.woken, e)
	e.cond.Signal()
}

// indexLocked enters parked e in the wake index under its current key. A
// Recv waiter with an empty queue has no key: only a send to it, its
// death or its fence (touched, or the doomed list) can wake it.
func (n *Network) indexLocked(e *Endpoint) {
	switch e.waiting {
	case wRecv:
		if len(e.q) == 0 {
			return
		}
		h := e.q[0]
		e.key, e.keySrc = waitKey{h.ArriveVT, h.Src}, n.eps[h.Src]
	case wTurn:
		e.key, e.keySrc = waitKey{e.turnVT.Add(n.minLat), e.id}, e
	default:
		return
	}
	heap.Push(&n.waiters, e)
	if e.keySrc != nil {
		heap.Push(&e.keySrc.keyed, e)
	}
}

// unindexLocked removes e from the wake index (a no-op if absent).
func (n *Network) unindexLocked(e *Endpoint) {
	if i := e.hidx[0]; i >= 0 {
		heap.Remove(&n.waiters, i)
	}
	if i := e.hidx[1]; i >= 0 {
		heap.Remove(&e.keySrc.keyed, i)
	}
	e.keySrc = nil
}

// firstLocked returns the first low3 entry whose id is neither x nor y —
// the bound a gate excluding those two sources compares with — or an
// infinite entry when none is finite.
func (n *Network) firstLocked(x, y int) boundRef {
	for _, r := range n.low3 {
		if r.b == infTime || (r.id != x && r.id != y) {
			return r
		}
	}
	return boundRef{infTime, -1}
}

// admits reports whether the bound r lets a message with key k through: r's
// source's next message arrives no earlier than r.b+minLat, with source
// tiebreak r.id.
func (n *Network) admits(r boundRef, k waitKey) bool {
	if r.b == infTime {
		return true
	}
	a := r.b.Add(n.minLat)
	return a > k.a || (a == k.a && r.id > k.src)
}

// doomReapLocked reports whether a doomed endpoint blocked in Recv can be
// reaped: nothing within the fence can still be delivered to it — its
// queue holds no pre-fence message and no other live source's bound still
// admits a send at or below the fence (a source bound above doomVT can
// only produce arrivals past doomVT+minLat, outside the drain). This is
// what makes the gate victim-aware: a scope peer blocked on the
// already-stopped victim is released with ErrKilled the moment the plane
// proves the wait hopeless, instead of deadlocking the pre-kill drain.
func (n *Network) doomReapLocked(e *Endpoint) bool {
	d := e.doomVT
	if d == infTime || e.dead {
		return false
	}
	if len(e.q) > 0 && !n.pastFenceLocked(e, e.q[0]) {
		return false // a pre-fence message is queued; it must be delivered
	}
	r := n.firstLocked(e.id, e.id)
	return r.b == infTime || r.b > d
}

// gatePassLocked reports whether m — the minimum-key message queued at dst
// — can be delivered now: no other live source can still produce a message
// that sorts before it. Messages from m's own source are FIFO-clamped
// behind it, and dst itself cannot send while it is receiving. The relevant
// constraint is the lexicographic minimum of (bound, id) over all sources
// except those two, which is among the plane's three smallest.
func (n *Network) gatePassLocked(dst *Endpoint, m *Msg) bool {
	return n.admits(n.firstLocked(dst.id, m.Src), waitKey{m.ArriveVT, m.Src})
}

// turnPassLocked reports whether e holds the (vt, id) action turn: every
// other live source's bound sorts strictly after it.
func (n *Network) turnPassLocked(e *Endpoint, vt vtime.Time) bool {
	r := n.firstLocked(e.id, e.id)
	return r.b == infTime || r.b > vt || (r.b == vt && r.id > e.id)
}

// DebugState renders the delivery plane (states, frontiers, bounds, queue
// heads) for deadlock diagnostics; the runtime includes it in watchdog
// errors.
func (n *Network) DebugState() string {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	var b []byte
	names := [...]string{"running", "blocked", "idle", "dead"}
	for _, e := range n.epList {
		head := "-"
		if len(e.q) > 0 {
			m := e.q[0]
			head = fmt.Sprintf("%s src=%d avt=%d deliverable=%v", m.Kind, m.Src, m.ArriveVT, n.gatePassLocked(e, m))
		}
		doom := ""
		if e.doomVT < infTime {
			doom = fmt.Sprintf(" doom=%d", e.doomVT)
		}
		b = fmt.Appendf(b, "  ep %d: %s frontier=%d bound=%d%s qlen=%d head={%s}\n",
			e.id, names[e.state], e.frontier, n.boundLocked(e), doom, len(e.q), head)
	}
	return string(b)
}

// Stats returns the pair-traffic matrix (np*np, row = src), densified from
// the channels' accounting; ranks talk to few peers in most kernels, so
// only this copy is dense.
func (n *Network) Stats() []PairStat {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	out := make([]PairStat, n.np*n.np)
	for _, p := range n.pairs {
		src, dst := p[0], p[1]
		out[src*n.np+dst] = n.eps[dst].chans[src].stat
	}
	return out
}

// PairStatAt returns accounting for the ordered pair (src, dst).
func (n *Network) PairStatAt(src, dst int) PairStat {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	return n.eps[dst].chans[src].stat
}

// Doom declares that id dies at virtual time d without stopping it
// immediately: the endpoint keeps taking checkpoint-write turns stamped at
// or below d and keeps delivering messages arriving within one
// minimum-latency hop of d (anything the gate could have admitted while
// the stopped victim's stale frontier still constrained the plane) exactly
// as a failure-free execution would, and its first wait for anything
// provably past that fence returns ErrKilled. The supervisor dooms a
// failure's whole restart scope at the detection time, drains the plane to
// the fence, and only then finalizes with Kill — making the kill phase an
// ordered event in virtual time. An earlier doom wins when called twice;
// Kill and RestartAt clear it.
func (n *Network) Doom(id int, d vtime.Time) {
	n.dmu.Lock()
	e := n.endpointLocked(id)
	if !e.dead && d < e.doomVT {
		if e.doomVT == infTime {
			n.doomed = append(n.doomed, e)
		}
		e.doomVT = d
		n.refreshLocked(e)
	}
	n.dmu.Unlock()
}

// undoomLocked clears e's death fence.
func (n *Network) undoomLocked(e *Endpoint) {
	if e.doomVT == infTime {
		return
	}
	e.doomVT = infTime
	i := slices.Index(n.doomed, e)
	n.doomed = slices.Delete(n.doomed, i, i+1)
}

// Kill marks rank dead: bumps its incarnation, wipes its mailbox and wakes
// any blocked receiver with ErrKilled. It returns the incarnation the
// process will restart with. A dead source keeps constraining the delivery
// gate at its stale frontier: it can only come back via RestartAt, at or
// after that point (the runtime resumes it from a checkpoint read no
// earlier than the failure's detection time), so the plane never admits a
// stamp its restart could undercut.
//
// Messages the dead incarnation had already enqueued at other processes are
// deliberately left in place: a message sent before the victim's checkpoint
// is not rolled back and must still be delivered, and one sent after it is
// handled by the protocol's orphan machinery exactly as if it had been
// delivered just before the failure.
func (n *Network) Kill(rank int) int32 {
	n.dmu.Lock()
	n.inc[rank]++
	newInc := n.inc[rank]
	n.killLocked(n.eps[rank])
	n.dmu.Unlock()
	return newInc
}

// KillService kills a non-application endpoint (e.g. the recovery process)
// without touching incarnation bookkeeping.
func (n *Network) KillService(id int) {
	n.dmu.Lock()
	if e, ok := n.eps[id]; ok {
		n.killLocked(e)
	}
	n.dmu.Unlock()
}

func (n *Network) killLocked(e *Endpoint) {
	e.dead = true
	e.state = stDead
	n.undoomLocked(e)
	e.q = nil
	n.updateLocked(e)
	n.refreshLocked(e)
}

// Restart revives the endpoint of rank with an empty mailbox.
func (n *Network) Restart(rank int) { n.RestartAt(rank, 0) }

// RestartAt revives the endpoint of rank with an empty mailbox, running
// with its send frontier at exactly vt — the virtual time the restarted
// process resumes from. The frontier is allowed to move BACKWARDS here: a
// rolled-back scope member whose pre-kill clock ran ahead of the detection
// time resumes from its checkpoint below its stale frontier, and keeping
// the stale value would advertise a bound its re-executed sends undercut.
// Rewinding is sound because the latent recovery source (DeclareRecovery)
// capped every delivery at the plane's minimum cap plus lookahead, which
// never exceeded the detection time the restart resumes at or after.
// Channel clamps are kept: a restarted receiver's channels continue the
// FIFO order survivors already observed.
func (n *Network) RestartAt(rank int, vt vtime.Time) {
	n.dmu.Lock()
	n.reviveLocked(n.eps[rank], vt)
	n.dmu.Unlock()
}

// reviveLocked brings e back running at frontier vt with an empty mailbox
// and no fence.
func (n *Network) reviveLocked(e *Endpoint, vt vtime.Time) {
	e.dead = false
	e.state = stRunning
	n.undoomLocked(e)
	e.frontier = vt
	e.q = nil
	n.updateLocked(e)
	n.refreshLocked(e)
}

// AttachAt marks id running with its send frontier at exactly vt,
// rewinding a stale frontier left by a previous attachment. The supervisor
// uses it to attach the recovery endpoint at a round's detection time,
// which may precede the virtual time the previous round ended at; the same
// latent-source argument as RestartAt makes the rewind sound.
func (n *Network) AttachAt(id int, vt vtime.Time) {
	n.dmu.Lock()
	e := n.endpointLocked(id)
	if e.state != stDead {
		e.state = stRunning
		e.frontier = vt
		n.updateLocked(e)
		n.refreshLocked(nil)
	}
	n.dmu.Unlock()
}

// RestartServiceAt revives a killed service endpoint (the recovery process)
// with an empty mailbox, running at frontier vt. The supervisor uses it when
// a starved recovery round is superseded: the old coordinator was killed
// mid-round (KillService), and the superseding merged round's coordinator
// reuses the endpoint. Unlike AttachAt it revives a dead endpoint; unlike
// RestartAt it touches no incarnation bookkeeping.
func (n *Network) RestartServiceAt(id int, vt vtime.Time) {
	n.dmu.Lock()
	n.reviveLocked(n.endpointLocked(id), vt)
	n.dmu.Unlock()
}

// MaxFrontier reports the largest send frontier over all endpoints — an
// upper bound on every virtual stamp the plane has produced or admitted
// (any admitted delivery advanced some frontier to at least its stamp minus
// one hop). At a quiescent point it is a pure function of virtual time: the
// supervisor uses it to place a superseding merged round's start.
func (n *Network) MaxFrontier() vtime.Time {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	var max vtime.Time
	for _, e := range n.epList {
		if e.frontier > max {
			max = e.frontier
		}
	}
	return max
}

// Quiescent reports whether the plane is truly stuck: exactly expected
// goroutines are parked (in Recv or AwaitTurn) and none of their wake
// conditions hold. A true result is a stable property: no parked goroutine
// can run again until the caller mutates the plane, and the stuck state it
// describes is a pure function of virtual time (every run of the same
// schedule reaches the identical one). The supervisor uses it to detect a
// starved recovery round — one whose coordinator waits on reports from
// ranks a queued overlapping failure already killed — and deterministically
// supersede it. Every refresh signals the waiters whose condition it made
// true, so only the signalled ones, not yet resumed, need a look.
func (n *Network) Quiescent(expected int) bool {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	if n.parked != expected {
		return false
	}
	for _, e := range n.woken {
		if n.readyLocked(e) {
			return false
		}
	}
	return true
}
