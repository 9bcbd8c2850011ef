package transport

// Differential tests of the delivery plane against its original closed
// form: the three-pass refresh that recomputed every bound from scratch and
// re-checked every waiter after each mutation. The plane now derives the
// same bounds from a tournament tree and wakes waiters through an index;
// after every operation of a scripted or fuzzed single-goroutine run the
// derived bounds, low3, m1 and a1 must equal the oracle's, and every
// waiter whose condition the oracle says holds must have been signalled
// since it parked.

import (
	"encoding/binary"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"hydee/internal/netmodel"
	"hydee/internal/vtime"
)

// oracle is the result of one oracle refresh.
type oracle struct {
	bound map[*Endpoint]vtime.Time
	low   [3]boundRef
	m1    vtime.Time
	a1    *Endpoint
	ready []*Endpoint
}

// oracleRefresh is the plane's original refresh, kept verbatim except that
// bounds go to o.bound instead of a stored field and pass 3 reports the
// waiters whose condition holds instead of signalling them.
//
// Closed form of the transitive bound (any source can send to any
// destination): let cap(e) be max(frontier, queue head) for a blocked
// source (inf with an empty queue), the frontier for a running or dead one
// and inf for an idle one, and let m1 be the smallest cap. The cap-minimal
// source's bound is exactly its cap (its head precedes anything others can
// still produce), and every other blocked source's bound is
// max(frontier, min(queueHead, m1+minLat)): it can only act after
// delivering something, which arrives no earlier than min of its own head
// and the earliest stamp the rest of the plane can still emit.
func oracleRefresh(n *Network) oracle {
	o := oracle{bound: make(map[*Endpoint]vtime.Time)}
	// Pass 1: caps and their two smallest values.
	m1, m2 := infTime, infTime
	var a1 *Endpoint
	for _, e := range n.epList {
		cap := infTime
		switch e.state {
		case stRunning, stDead:
			cap = e.frontier
		case stBlocked:
			if len(e.q) > 0 {
				cap = e.frontier
				if h := e.q[0].ArriveVT; h > cap {
					cap = h
				}
			}
		}
		o.bound[e] = cap // provisional; blocked non-minimal sources improve below
		if cap < m1 {
			m2, m1, a1 = m1, cap, e
		} else if cap < m2 {
			m2 = cap
		}
	}
	// Pass 2: blocked sources other than the unique cap-argmin are bounded
	// by the earliest arrival the rest of the plane can still emit, and the
	// idle latent recovery source by the earliest virtual time a failure
	// could still be detected at (the minimum cap).
	low := [3]boundRef{{infTime, -1}, {infTime, -1}, {infTime, -1}}
	for _, e := range n.epList {
		if e.state == stBlocked && e != a1 && m1 < infTime {
			b := m1.Add(n.minLat)
			if len(e.q) > 0 && e.q[0].ArriveVT < b {
				b = e.q[0].ArriveVT
			}
			if e.frontier > b {
				b = e.frontier
			}
			o.bound[e] = b
		} else if e.state == stIdle && e == n.latent {
			o.bound[e] = m1
		}
		if o.bound[e] < infTime {
			r := boundRef{o.bound[e], e.id}
			switch {
			case r.less(low[0]):
				low[0], low[1], low[2] = r, low[0], low[1]
			case r.less(low[1]):
				low[1], low[2] = r, low[1]
			case r.less(low[2]):
				low[2] = r
			}
		}
	}
	o.low, o.m1, o.a1 = low, m1, a1
	// Pass 3: the waiters whose condition now holds.
	for _, e := range n.epList {
		switch e.waiting {
		case wRecv:
			if e.dead || (len(e.q) > 0 && oracleGatePass(n, low, e, e.q[0])) || oracleDoomReap(n, low, e) {
				o.ready = append(o.ready, e)
			}
		case wTurn:
			if e.dead || e.turnVT > e.doomVT || oracleTurnPass(low, e, e.turnVT) {
				o.ready = append(o.ready, e)
			}
		}
	}
	return o
}

func oracleDoomReap(n *Network, low [3]boundRef, e *Endpoint) bool {
	d := e.doomVT
	if d == infTime || e.dead {
		return false
	}
	if len(e.q) > 0 && !n.pastFenceLocked(e, e.q[0]) {
		return false
	}
	for _, r := range low {
		if r.b == infTime {
			return true
		}
		if r.id == e.id {
			continue
		}
		return r.b > d
	}
	return true
}

func oracleGatePass(n *Network, low [3]boundRef, dst *Endpoint, m *Msg) bool {
	for _, r := range low {
		if r.b == infTime {
			return true
		}
		if r.id == dst.id || r.id == m.Src {
			continue
		}
		a := r.b.Add(n.minLat)
		return a > m.ArriveVT || (a == m.ArriveVT && r.id > m.Src)
	}
	return true
}

func oracleTurnPass(low [3]boundRef, e *Endpoint, vt vtime.Time) bool {
	for _, r := range low {
		if r.b == infTime {
			return true
		}
		if r.id == e.id {
			continue
		}
		return r.b > vt || (r.b == vt && r.id > e.id)
	}
	return true
}

// planeMismatch compares the plane's derived state with the oracle's and
// checks the wake index's bookkeeping; it returns "" when they agree.
func planeMismatch(n *Network) string {
	n.dmu.Lock()
	defer n.dmu.Unlock()
	o := oracleRefresh(n)
	if n.low3 != o.low {
		return fmt.Sprintf("low3 %v, oracle %v", n.low3, o.low)
	}
	if n.seen3 != n.low3 {
		return fmt.Sprintf("wake index reconciled with %v, low3 is %v", n.seen3, n.low3)
	}
	if m1 := n.tree.hi[1]; m1 != o.m1 {
		return fmt.Sprintf("m1 %d, oracle %d", m1, o.m1)
	}
	if o.a1 != nil && n.epList[n.tree.hiArg[1]] != o.a1 {
		return fmt.Sprintf("a1 ep %d, oracle ep %d", n.epList[n.tree.hiArg[1]].id, o.a1.id)
	}
	parked := 0
	for p, e := range n.epList {
		if e.pos != p {
			return fmt.Sprintf("ep %d at position %d records %d", e.id, p, e.pos)
		}
		if b := n.boundLocked(e); b != o.bound[e] {
			return fmt.Sprintf("ep %d bound %d, oracle %d", e.id, b, o.bound[e])
		}
		if e.waiting != wNone {
			parked++
		}
		if e.woken() && (e.waiting == wNone || n.woken[e.wokenIdx] != e) {
			return fmt.Sprintf("ep %d (waiting %d) has stale woken slot %d", e.id, e.waiting, e.wokenIdx)
		}
		indexed := e.waiting != wNone && !e.woken() && (e.waiting == wTurn || len(e.q) > 0)
		if indexed != (e.hidx[0] >= 0) {
			return fmt.Sprintf("ep %d (waiting %d, woken %v, qlen %d) global heap slot %d", e.id, e.waiting, e.woken(), len(e.q), e.hidx[0])
		}
		if e.hidx[1] >= 0 && e.keySrc.keyed.es[e.hidx[1]] != e {
			return fmt.Sprintf("ep %d keyed heap slot %d is stale", e.id, e.hidx[1])
		}
	}
	if parked != n.parked {
		return fmt.Sprintf("parked count %d, %d endpoints waiting", n.parked, parked)
	}
	for _, e := range o.ready {
		if !e.woken() {
			return fmt.Sprintf("ep %d (waiting %d) is ready but was not signalled since it parked", e.id, e.waiting)
		}
	}
	return ""
}

// planeDriver runs the blocking waits of the plane one evaluation at a
// time on a single goroutine: a wait whose condition is false parks exactly
// as Recv and AwaitTurn do, and resume plays the parked goroutine waking
// up after its signal.
type planeDriver struct {
	n   *Network
	now map[*Endpoint]vtime.Time // the clock each pending Recv blocked with
}

func newPlaneDriver(n *Network) *planeDriver {
	return &planeDriver{n: n, now: make(map[*Endpoint]vtime.Time)}
}

// recv starts a Recv on e at clock now; it reports whether the call
// returned at once (false: e is parked).
func (d *planeDriver) recv(e *Endpoint, now vtime.Time) bool {
	d.n.dmu.Lock()
	defer d.n.dmu.Unlock()
	if e.dead {
		return true
	}
	e.blockLocked(now)
	if _, ok, _ := e.pollLocked(now); ok {
		return true
	}
	d.now[e] = now
	d.n.parkLocked(e, wRecv)
	return false
}

// turn starts an AwaitTurn(e, vt); it reports whether the call returned.
func (d *planeDriver) turn(e *Endpoint, vt vtime.Time) bool {
	d.n.dmu.Lock()
	defer d.n.dmu.Unlock()
	e.turnVT = vt
	if ok, _ := d.n.pollTurnLocked(e); ok {
		return true
	}
	d.n.parkLocked(e, wTurn)
	return false
}

// resume wakes signalled e's goroutine: it re-evaluates its wait and parks
// again if the condition no longer holds.
func (d *planeDriver) resume(e *Endpoint) {
	n := d.n
	n.dmu.Lock()
	defer n.dmu.Unlock()
	kind := e.waiting
	n.unparkLocked(e)
	var ok bool
	switch kind {
	case wRecv:
		_, ok, _ = e.pollLocked(d.now[e])
	case wTurn:
		ok, _ = n.pollTurnLocked(e)
	}
	if !ok {
		n.parkLocked(e, kind)
	}
}

func (d *planeDriver) parked(e *Endpoint) bool {
	d.n.dmu.Lock()
	defer d.n.dmu.Unlock()
	return e.waiting != wNone
}

// woken returns the signalled waiters not yet resumed, in id order.
func (d *planeDriver) woken() []*Endpoint {
	d.n.dmu.Lock()
	defer d.n.dmu.Unlock()
	var out []*Endpoint
	for _, e := range d.n.epList {
		if e.woken() {
			out = append(out, e)
		}
	}
	return out
}

// oracleScript drives every mutator through latent-source, doom, kill,
// restart and rewind cases on a 4-rank plane with a latent recovery
// endpoint and a late service endpoint, checking the plane against the
// oracle after every step. It returns the DebugState after each step.
func oracleScript(t *testing.T) (*Network, []string) {
	t.Helper()
	n := NewNetwork(4, netmodel.Myrinet10G())
	rec := 4
	n.DeclareRecovery(rec)
	d := newPlaneDriver(n)
	ep := func(id int) *Endpoint { return n.Endpoint(id) }
	var states []string
	step := func(what string, f func()) {
		t.Helper()
		f()
		if msg := planeMismatch(n); msg != "" {
			t.Fatalf("after %s: %s\nplane:\n%s", what, msg, n.DebugState())
		}
		states = append(states, n.DebugState())
	}
	resumeAll := func() {
		for _, e := range d.woken() {
			d.resume(e)
		}
	}
	step("rank 1 blocks on an empty mailbox", func() { d.recv(ep(1), 0) })
	step("rank 2 blocks on an empty mailbox", func() { d.recv(ep(2), 0) })
	step("0 sends to 1", func() { send(t, n, 0, 1, 1, 10_000) })
	step("3 sends to 1 earlier", func() { send(t, n, 3, 1, 2, 5_000) })
	step("3 sends to 2", func() { send(t, n, 3, 2, 3, 6_000) })
	step("0 publishes", func() { n.Publish(0, 40_000) })
	step("3 publishes", func() { n.Publish(3, 30_000) })
	step("resume", resumeAll)
	step("rank 3 takes a turn", func() { d.turn(ep(3), 35_000) })
	step("rank 0 takes a turn", func() { d.turn(ep(0), 45_000) })
	step("resume", resumeAll)
	step("recovery attaches", func() { n.AttachAt(rec, 20_000) })
	step("recovery sends to 2", func() {
		if err := n.Send(&Msg{Src: rec, Dst: 2, Kind: Ctl, SendVT: 21_000}); err != nil {
			t.Fatal(err)
		}
	})
	step("recovery quiesces: latent again", func() { n.Quiesce(rec) })
	step("resume", resumeAll)
	step("rank 1 blocks again", func() { d.recv(ep(1), 12_000) })
	step("rank 2 blocks again", func() { d.recv(ep(2), 25_000) })
	step("doom 2 below its next arrival", func() { n.Doom(2, 26_000) })
	step("doom 1", func() { n.Doom(1, 90_000) })
	step("0 publishes past the fences", func() { n.Publish(0, 100_000) })
	step("3 quiesces", func() { n.Quiesce(3) })
	step("resume", resumeAll)
	step("kill 2", func() { n.Kill(2) })
	step("resume", resumeAll)
	step("send to dead 2", func() { send(t, n, 0, 2, 4, 100_000) })
	step("restart 2 rewound", func() { n.RestartAt(2, 27_000) })
	step("kill 1", func() { n.Kill(1) })
	step("restart 1", func() { n.RestartAt(1, 27_000) })
	step("resume", resumeAll)
	step("late service endpoint below every rank", func() { ep(-5) })
	step("service sends to 1", func() {
		if err := n.Send(&Msg{Src: -5, Dst: 1, Kind: Ctl, SendVT: 27_500}); err != nil {
			t.Fatal(err)
		}
	})
	step("rank 1 blocks", func() { d.recv(ep(1), 27_000) })
	step("rank 2 blocks", func() { d.recv(ep(2), 27_000) })
	step("service quiesces", func() { n.Quiesce(-5) })
	step("recovery restarts after a kill", func() {
		n.KillService(rec)
		n.RestartServiceAt(rec, 28_000)
	})
	step("recovery sends to 2", func() {
		if err := n.Send(&Msg{Src: rec, Dst: 2, Kind: Ctl, SendVT: 29_000}); err != nil {
			t.Fatal(err)
		}
	})
	step("recovery attaches rewound", func() { n.AttachAt(rec, 27_000) })
	step("resume", resumeAll)
	step("TryRecv on 0", func() {
		if _, _, err := ep(0).TryRecv(100_000); err != nil {
			t.Fatal(err)
		}
	})
	step("0 and 3 quiesce, recovery detaches", func() {
		n.Quiesce(0)
		n.Quiesce(3)
		n.Quiesce(rec)
	})
	for i := 0; i < 4; i++ {
		step("resume", resumeAll)
	}
	return n, states
}

// TestPlaneMatchesOracleSchedulingIndependent checks the plane against the
// oracle through a scripted run of every mutator, twice: the derived state
// after each step is a pure function of the script.
func TestPlaneMatchesOracleSchedulingIndependent(t *testing.T) {
	_, a := oracleScript(t)
	_, b := oracleScript(t)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d diverged:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

var debugBoundRe = regexp.MustCompile(`ep (-?\d+): \w+ frontier=-?\d+ bound=(-?\d+)`)

// TestDebugStateBoundsMatchOracle: the bounds DebugState prints are the
// oracle's after the scripted run.
func TestDebugStateBoundsMatchOracle(t *testing.T) {
	n, _ := oracleScript(t)
	n.dmu.Lock()
	o := oracleRefresh(n)
	want := make(map[int]vtime.Time)
	for e, b := range o.bound {
		want[e.id] = b
	}
	n.dmu.Unlock()
	rows := debugBoundRe.FindAllStringSubmatch(n.DebugState(), -1)
	if len(rows) != len(want) {
		t.Fatalf("DebugState lists %d endpoints, the plane has %d", len(rows), len(want))
	}
	for _, row := range rows {
		id, _ := strconv.Atoi(row[1])
		b, _ := strconv.ParseInt(row[2], 10, 64)
		if vtime.Time(b) != want[id] {
			t.Fatalf("DebugState bound of ep %d = %d, oracle %d", id, b, want[id])
		}
	}
}

// FuzzPlaneOracle runs random operation sequences on planes of 2 to 40
// ranks with the latent recovery endpoint (and service endpoints created
// on the way), checking the plane against the oracle after every one.
func FuzzPlaneOracle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{38, 3, 0, 1, 5, 3, 2, 0, 9, 0, 1, 2, 3, 1, 1, 0, 7, 2, 9, 5, 6, 0, 0, 0})
	f.Add([]byte("\x05\x00\x01\x02\x10\x03\x01\x00\x00\x07\x02\x30\x10\x06\x00\x00\x00\x08\x01\x00\x00\x06\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		np := 2 + int(data[0])%39
		model := netmodel.Ideal()
		if data[0]&0x80 != 0 {
			model = netmodel.Myrinet10G()
		}
		n := NewNetwork(np, model)
		n.DeclareRecovery(np)
		d := newPlaneDriver(n)
		ids := make([]int, 0, np+4)
		for i := 0; i <= np; i++ {
			ids = append(ids, i)
		}
		extra := []int{np + 2, -3, np + 1}
		// Times are multiples of a unit near the minimum latency so that
		// ties between bounds, heads and turns are frequent.
		unit := vtime.Time(n.minLat)
		for ops, rest := 0, data[1:]; len(rest) >= 4 && ops < 400; ops, rest = ops+1, rest[4:] {
			op, a, b := rest[0]%14, int(rest[1]), rest[2:4]
			e := n.Endpoint(ids[a%len(ids)])
			peer := n.Endpoint(ids[int(b[0])%len(ids)])
			vt := vtime.Time(binary.LittleEndian.Uint16(b)%512) * unit
			var what string
			switch op {
			case 0, 1:
				what = fmt.Sprintf("send %d->%d at %d", e.id, peer.id, e.frontier+vt%(8*unit))
				kind := Kind(b[1] % 3)
				if err := n.Send(&Msg{Src: e.id, Dst: peer.id, Kind: kind, WireLen: int(b[1]), SendVT: e.frontier + vt%(8*unit)}); err != nil {
					t.Fatal(err)
				}
			case 2:
				what = fmt.Sprintf("publish %d at %d", e.id, vt)
				n.Publish(e.id, vt)
			case 3:
				what = fmt.Sprintf("quiesce %d", e.id)
				n.Quiesce(e.id)
			case 4:
				if d.parked(e) {
					continue
				}
				what = fmt.Sprintf("recv %d at %d", e.id, vt)
				d.recv(e, vt)
			case 5:
				if d.parked(e) {
					continue
				}
				what = fmt.Sprintf("tryrecv %d at %d", e.id, vt)
				_, _, _ = e.TryRecv(vt)
			case 6:
				if d.parked(e) {
					continue
				}
				what = fmt.Sprintf("turn %d at %d", e.id, vt)
				d.turn(e, vt)
			case 7:
				w := d.woken()
				if len(w) == 0 {
					continue
				}
				e = w[a%len(w)]
				what = fmt.Sprintf("resume %d", e.id)
				d.resume(e)
			case 8:
				what = fmt.Sprintf("doom %d at %d", e.id, vt)
				n.Doom(e.id, vt)
			case 9:
				what = fmt.Sprintf("kill %d", e.id)
				if e.id >= 0 && e.id < np {
					n.Kill(e.id)
				} else {
					n.KillService(e.id)
				}
			case 10:
				if d.parked(e) {
					continue
				}
				what = fmt.Sprintf("restart %d at %d", e.id, vt)
				if e.id >= 0 && e.id < np {
					n.RestartAt(e.id, vt)
				} else {
					n.RestartServiceAt(e.id, vt)
				}
			case 11:
				what = fmt.Sprintf("attach %d at %d", e.id, vt)
				n.AttachAt(e.id, vt)
			case 12:
				if len(extra) == 0 {
					continue
				}
				what = fmt.Sprintf("new endpoint %d", extra[0])
				n.Endpoint(extra[0])
				ids = append(ids, extra[0])
				extra = extra[1:]
			case 13:
				what = fmt.Sprintf("quiescent(%d)", a%4)
				n.Quiescent(a % 4)
			}
			if msg := planeMismatch(n); msg != "" {
				t.Fatalf("op %d (%s): %s\nplane:\n%s", ops, what, msg, n.DebugState())
			}
		}
	})
}
