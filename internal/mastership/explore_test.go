package mastership

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"totoro/internal/ids"
	"totoro/internal/ring"
)

// The explorer is the rules' second executor. It runs Step on up to three
// model nodes over a model network and enumerates every interleaving of
// deliveries (in any order, so every reorder), timers, drops, duplicates,
// crash-restarts and partition-heals, within a scenario's fault budget and
// event count and up to epoch 2 and round 3 (MaxRounds). After every event
// it checks five properties:
//   - at most one acked master: no two nodes replicate an image of one epoch;
//   - commits are monotone: per node and epoch, each commit's round rises;
//   - no update counted twice: no worker's update twice in one commit;
//   - no replica ahead of the acks: a replica's round is at most the highest
//     round acked at its epoch or below, as the chaos checker has it;
//   - liveness after a heal: with every node up and the network whole, the
//     fair schedule (messages in order, the oldest timer next) commits a
//     new round or finishes.
// A violating state is not expanded, and each finding is the shortest event
// sequence that reaches its property.
//
// The model network is the engine's. An image or a ping is a raw send, so
// it may be dropped, duplicated or reordered, and a partition loses what
// crosses it. A round's client updates travel up the tree, which
// deduplicates: a flush may be reordered, never duplicated, and a lost
// flush is the root's aggregation deadline flushing nothing. Each Publish
// makes one flush per worker, addressed to the publishing root, and a root
// drops a flush of another epoch, as pub/sub's upstream epoch gate does.
// With leak set, a flush may instead land at whichever node masters the app
// when it arrives: a partial that outlived its instance, riding a subtree
// that re-parented to another root.
//
// The ring routes the app to the lowest-numbered node a node can see
// alive; node 0 is also the closest to the app. Workers are not nodes:
// they always reach the root, and a restarted root's tree is never empty.

const (
	workers  = 2
	maxEpoch = 2
	epochs   = maxEpoch + 3 // room for the bump past the bound
)

var (
	app      = ids.ID{Hi: 1 << 63}
	contacts = [3]ring.Contact{
		{ID: ids.ID{Hi: 1<<63 + 1}, Addr: "n0"},
		{ID: ids.ID{Hi: 1<<63 + 2}, Addr: "n1"},
		{ID: ids.ID{Hi: 1<<63 + 3}, Addr: "n2"},
	}
)

// img is the model's mastership image: the stamp alone. id names the
// mastership a node holds, for the timers it arms, as the engine's timers
// capture its pointer.
type img struct {
	v  Stamp
	id int
}

func (m *img) Stamp() Stamp     { return m.v }
func (m *img) SetStamp(v Stamp) { m.v = v }
func (m *img) Own() Image       { return &img{v: m.v} }
func (*img) Rules() Rules       { return Rules{Quorum: workers, MaxRounds: 3} }

type msgKind uint8

const (
	msgImage msgKind = iota
	msgPing
	msgFlush
)

// msg is a message in flight, packed small: the explorer copies every
// message of every state it reaches.
type msg struct {
	kind          msgKind
	from, to      int8
	epoch, round  int8 // the image's, or the flush's instance
	started, done bool // msgImage
	worker        int8 // msgFlush: one worker's update of the round ...
	empty         bool // ... or none: a lost flush is the root's deadline flushing nothing
}

func imageMsg(from, to int, v Stamp) msg {
	return msg{kind: msgImage, from: int8(from), to: int8(to), epoch: int8(v.Epoch), round: int8(v.Round), started: v.Started, done: v.Done}
}

func (m msg) stamp() Stamp {
	return Stamp{Master: contacts[m.from], Epoch: int(m.epoch), Round: int(m.round), Started: m.started, Done: m.done}
}

// code packs m for ordering and hashing.
func (m msg) code() uint64 {
	var c uint64
	for _, x := range []int8{int8(m.kind), m.from, m.to, m.epoch, m.round, int8(b2i(m.started)), int8(b2i(m.done)), m.worker + 2*int8(b2i(m.empty))} {
		c = c<<8 | uint64(uint8(x))
	}
	return c
}

type timerKind uint8

const (
	tDeadline timerKind = iota
	tGrace
	tCheck
)

type timer struct {
	kind         timerKind
	id           int // the mastership that armed it; 0 for a check
	round, epoch int
	seq          int // when it was armed: the fair schedule fires the oldest
}

type update struct{ worker, round, epoch int }

type node struct {
	s, dur   State[*img] // live; what a restart recovers: the journal folded by Step
	alive    bool
	checking bool
	pending  []update
	flush    update
	timers   []timer
}

// scenario bounds a search: the nodes, the faults of each kind, whether a
// flush can outlive its instance, and the longest event sequence.
type scenario struct {
	n                          int
	crashes, cuts, drops, dups int
	leak                       bool
	depth                      int
}

type world struct {
	scenario
	cut                  int
	nodes                [3]node
	msgs                 []msg
	used                 scenario      // the faults spent
	acked                [epochs]int   // highest round acked per epoch, -1 for none
	ackers               [epochs]uint8 // the nodes that acked per epoch
	last                 [3][epochs]int
	commits, nextID, seq int
	path                 []move
	verbose              bool
	bad                  string
	acts                 []Action
}

func newWorld(sc scenario) *world {
	w := &world{scenario: sc, cut: -1}
	for i := range w.acked {
		w.acked[i] = -1
	}
	for i := range sc.n {
		w.nodes[i].alive = true
	}
	w.step(0, Event[*img]{Kind: Announce, Image: &img{}})
	w.step(0, Event[*img]{Kind: Start})
	return w
}

func (w *world) reach(i, j int) bool { return i == j || w.cut != i && w.cut != j }

func (w *world) owns(i int) bool {
	for j := range w.n {
		if w.nodes[j].alive && w.reach(i, j) {
			return j == i
		}
	}
	return false
}

func (w *world) fail(property string) {
	if w.bad == "" {
		w.bad = property
	}
}

// step is the model's executor, the engine's step and do in one.
func (w *world) step(i int, ev Event[*img]) {
	nd := &w.nodes[i]
	ev.Self, ev.App = contacts[i], app
	if nd.s.Role() == Holder {
		ev.Owns = w.owns(i)
	}
	base := len(w.acts)
	w.acts = Step(&nd.s, ev, w.acts)
	if m := nd.s.Master; m != nil && m.id == 0 {
		w.nextID++
		m.id = w.nextID
	}
	for k, end := base, len(w.acts); k < end; k++ {
		w.do(i, ev, w.acts[k])
	}
	w.acts = w.acts[:base]
}

func (w *world) do(i int, ev Event[*img], a Action) {
	nd := &w.nodes[i]
	v := a.Stamp
	v.Master = contacts[i]
	switch a.Op {
	case Journal:
		w.fold(i, Event[*img]{Kind: Restore, Image: &img{v: v}})
	case JournalOffer:
		w.fold(i, Event[*img]{Kind: Offer, Image: &img{v: ev.Image.v}})
	case Replicate:
		if w.ackers[v.Epoch]&^(1<<i) != 0 {
			w.fail("at most one acked master")
		}
		w.ackers[v.Epoch] |= 1 << i
		w.ack(v.Epoch, v.Round)
		for j := range w.n {
			if j != i {
				w.msgs = append(w.msgs, imageMsg(i, j, v))
			}
		}
	case Publish:
		for k := range workers {
			w.msgs = append(w.msgs, msg{kind: msgFlush, from: int8(i), to: int8(i), round: int8(v.Round), epoch: int8(v.Epoch), worker: int8(k)})
		}
	case Fold:
		nd.pending = append(nd.pending, nd.flush)
	case Hold:
		w.arm(nd, timer{kind: tDeadline, id: nd.s.Master.id, round: v.Round, epoch: v.Epoch})
	case Retry, Disown:
		nd.pending = nil
	case Commit:
		w.commit(i, a)
	case ArmGrace, ArmTick:
		w.arm(nd, timer{kind: tGrace, id: nd.s.Master.id, round: v.Round})
	case ArmCheck:
		if !nd.checking {
			nd.checking = true
			w.arm(nd, timer{kind: tCheck})
		}
	case Store:
		w.step(i, Event[*img]{Kind: Keep, Image: ev.Image})
	case SendImage:
		w.msgs = append(w.msgs, imageMsg(i, index(a.To), v))
	case SendPing:
		w.msgs = append(w.msgs, msg{kind: msgPing, from: int8(i), to: int8(index(a.To))})
	}
}

func (w *world) arm(nd *node, t timer) {
	w.seq++
	t.seq = w.seq
	nd.timers = append(nd.timers, t)
}

func index(c ring.Contact) int {
	if c.Addr == "" {
		return -1
	}
	return int(c.Addr[1] - '0')
}

// fold is WAL replay: the journaled record stepped into what a restart
// recovers, with every action dropped but an Offer's Store.
func (w *world) fold(i int, ev Event[*img]) {
	d := &w.nodes[i].dur
	ev.Self, ev.App = contacts[i], app
	for _, a := range Step(d, ev, nil) {
		if a.Op == Store {
			Step(d, Event[*img]{Kind: Keep, Self: ev.Self, App: app, Image: ev.Image}, nil)
		}
	}
}

func (w *world) ack(epoch, round int) { w.acked[epoch] = max(w.acked[epoch], round) }

// commit checks a commit: per lineage (node and epoch) its rounds rise, and
// no worker's update is in it twice.
func (w *world) commit(i int, a Action) {
	nd := &w.nodes[i]
	e, r := a.Stamp.Epoch, a.Stamp.Round
	if last := w.last[i][e]; last != 0 && r <= last {
		w.fail("commits are monotone")
	}
	w.last[i][e] = r
	var seen [workers]bool
	for _, u := range nd.pending {
		if seen[u.worker] {
			w.fail("no update counted twice")
		}
		seen[u.worker] = true
	}
	w.ack(e, r)
	w.commits++
	nd.pending = nil
	w.step(i, Event[*img]{Kind: Evaluated})
}

// settle drops the timers of masterships that have gone, which could only
// fire as no-ops, and checks the replicas: none may be ahead of every
// master lineage's acks through its epoch.
func (w *world) settle() {
	for i := range w.n {
		nd := &w.nodes[i]
		nd.timers = slices.DeleteFunc(nd.timers, func(t timer) bool {
			return t.kind != tCheck && (nd.s.Master == nil || nd.s.Master.id != t.id)
		})
		if r := nd.s.Replica; r != nil {
			top := -1
			for e := 0; e <= min(r.v.Epoch, epochs-1); e++ {
				top = max(top, w.acked[e])
			}
			if r.v.Round > max(top, 0) {
				w.fail("no replica ahead of the acks")
			}
		}
	}
	slices.SortFunc(w.msgs, func(a, b msg) int { return cmp.Compare(a.code(), b.code()) })
}

func (m msg) String() string {
	switch m.kind {
	case msgImage:
		return fmt.Sprintf("n%d>n%d image e%dr%d%s", m.from, m.to, m.epoch, m.round, flags(m.stamp()))
	case msgPing:
		return fmt.Sprintf("n%d>n%d ping", m.from, m.to)
	}
	if m.empty {
		return fmt.Sprintf("empty flush e%dr%d>n%d", m.epoch, m.round, m.to)
	}
	return fmt.Sprintf("w%d flush e%dr%d>n%d", m.worker, m.epoch, m.round, m.to)
}

// lost is what the root gets instead of a flush that went elsewhere: its
// deadline flushing nothing.
func (m msg) lost() msg {
	return msg{kind: msgFlush, from: m.from, to: m.to, round: m.round, epoch: m.epoch, empty: true}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func flags(v Stamp) string {
	s := ""
	if v.Started {
		s += "s"
	}
	if v.Done {
		s += "d"
	}
	return s
}

func (w *world) clone() *world {
	c := *w
	c.msgs = slices.Clone(w.msgs)
	c.acts = nil
	for i := range w.n {
		nd := &c.nodes[i]
		nd.s, nd.dur = cloneState(nd.s), cloneState(nd.dur)
		nd.pending, nd.timers = slices.Clone(nd.pending), slices.Clone(nd.timers)
	}
	return &c
}

func cloneState(s State[*img]) State[*img] {
	if s.Master != nil {
		m := *s.Master
		s.Master = &m
	}
	if s.Replica != nil {
		r := *s.Replica
		s.Replica = &r
	}
	return s
}

// key is the world up to what cannot change what happens next: mastership
// ids, counters and the trace.
func (w *world) key() string {
	b := make([]byte, 0, 256)
	put := func(xs ...int) {
		for _, x := range xs {
			b = append(b, byte(x+1))
		}
	}
	st := func(m *img) {
		if m == nil {
			put(-1)
			return
		}
		put(index(m.v.Master), m.v.Epoch, m.v.Round, b2i(m.v.Started), b2i(m.v.Done))
	}
	for i := range w.n {
		nd := &w.nodes[i]
		put(b2i(nd.alive), b2i(nd.checking), int(nd.s.Phase), nd.s.Holds, nd.s.Merged, nd.s.Suspect, len(nd.pending), len(nd.timers))
		for _, m := range []*img{nd.s.Master, nd.s.Replica, nd.dur.Master, nd.dur.Replica} {
			st(m)
		}
		for _, u := range nd.pending {
			put(u.round, u.epoch)
		}
		for _, t := range nd.timers {
			put(int(t.kind), t.round, t.epoch)
		}
	}
	put(len(w.msgs))
	for _, m := range w.msgs {
		b = binary.LittleEndian.AppendUint64(b, m.code())
	}
	put(w.cut, w.used.crashes, w.used.cuts, w.used.drops, w.used.dups)
	put(w.acked[:]...)
	for e := range epochs {
		put(int(w.ackers[e]))
		for i := range w.n {
			put(w.last[i][e])
		}
	}
	return string(b)
}

// move is one transition: op on message, timer or node i (j: a timer's
// index, or the master a leaked flush lands at).
type move struct {
	op   byte
	i, j int
}

func (w *world) moves() []move {
	var out []move
	for k, m := range w.msgs {
		if k > 0 && m == w.msgs[k-1] {
			continue // the same message twice: one transition covers both
		}
		out = append(out, move{'d', k, 0})
		if w.used.drops < w.drops && !m.empty {
			out = append(out, move{'x', k, 0})
		}
		if w.used.dups < w.dups && m.kind != msgFlush {
			out = append(out, move{'2', k, 0})
		}
		if w.leak && m.kind == msgFlush {
			for j := range w.n {
				if j != int(m.to) && w.nodes[j].alive && w.nodes[j].s.Master != nil {
					out = append(out, move{'l', k, j})
				}
			}
		}
	}
	for i := range w.n {
		nd := &w.nodes[i]
		for t := range nd.timers {
			out = append(out, move{'t', i, t})
		}
		switch {
		case nd.alive && w.used.crashes < w.crashes:
			out = append(out, move{'c', i, 0})
		case !nd.alive:
			out = append(out, move{'u', i, 0})
		}
		if w.cut < 0 && w.used.cuts < w.cuts {
			out = append(out, move{'p', i, 0})
		}
	}
	if w.cut >= 0 {
		out = append(out, move{'h', 0, 0})
	}
	return out
}

func (w *world) apply(mv move) string {
	switch mv.op {
	case 'd', 'l':
		m := w.msgs[mv.i]
		w.msgs = slices.Delete(w.msgs, mv.i, mv.i+1)
		label := w.say("%v", m)
		if mv.op == 'l' {
			w.msgs = append(w.msgs, m.lost())
			m.to = int8(mv.j)
			label += w.say(" leaks to n%d", mv.j)
		}
		w.deliver(m)
		return label
	case 'x':
		m := w.msgs[mv.i]
		w.msgs = slices.Delete(w.msgs, mv.i, mv.i+1)
		w.used.drops++
		if m.kind == msgFlush {
			w.msgs = append(w.msgs, m.lost())
		}
		return w.say("drop %v", m)
	case '2':
		w.msgs = append(w.msgs, w.msgs[mv.i])
		w.used.dups++
		return w.say("dup %v", w.msgs[mv.i])
	case 't':
		nd := &w.nodes[mv.i]
		t := nd.timers[mv.j]
		nd.timers = slices.Delete(nd.timers, mv.j, mv.j+1)
		armed := &img{id: -1}
		if nd.s.Master != nil && nd.s.Master.id == t.id {
			armed = nd.s.Master
		}
		switch t.kind {
		case tDeadline:
			w.step(mv.i, Event[*img]{Kind: Deadline, Image: armed, Round: t.round, Epoch: t.epoch})
			return w.say("n%d hold of r%d expires", mv.i, t.round)
		case tGrace:
			w.step(mv.i, Event[*img]{Kind: Grace, Image: armed, Round: t.round})
			return w.say("n%d grace of r%d expires", mv.i, t.round)
		}
		nd.checking = false
		w.step(mv.i, Event[*img]{Kind: Check})
		return w.say("n%d checks", mv.i)
	case 'c':
		nd := &w.nodes[mv.i]
		nd.alive, nd.checking, nd.pending, nd.timers = false, false, nil, nil
		w.used.crashes++
		return w.say("crash n%d", mv.i)
	case 'u':
		nd := &w.nodes[mv.i]
		nd.alive, nd.s = true, cloneState(nd.dur)
		if nd.s.Master != nil {
			w.step(mv.i, Event[*img]{Kind: Resume})
		}
		if nd.s.Replica != nil {
			w.step(mv.i, Event[*img]{Kind: Keep, Image: nd.s.Replica})
		}
		return w.say("restart n%d", mv.i)
	case 'p':
		w.cut = mv.i
		w.used.cuts++
		return w.say("cut n%d off", mv.i)
	}
	w.cut = -1
	return w.say("heal")
}

// say renders a transition's label, for the findings only.
func (w *world) say(format string, args ...any) string {
	if !w.verbose {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

func (w *world) deliver(m msg) {
	if !w.nodes[m.to].alive || m.kind != msgFlush && !w.reach(int(m.from), int(m.to)) {
		return // lost to a crash or across the cut
	}
	switch m.kind {
	case msgImage:
		w.step(int(m.to), Event[*img]{Kind: Offer, Image: &img{v: m.stamp()}})
	case msgPing:
		w.step(int(m.to), Event[*img]{Kind: Ping, From: contacts[m.from]})
	case msgFlush:
		nd := &w.nodes[m.to]
		if nd.s.Master == nil || m.to == m.from && nd.s.Master.v.Epoch != int(m.epoch) {
			return // no root here, or the upstream epoch gate
		}
		nd.flush = update{int(m.worker), int(m.round), int(m.epoch)}
		w.step(int(m.to), Event[*img]{Kind: Flush, Round: int(m.round), Count: 1 - b2i(m.empty)})
	}
}

// live reports whether, from a healed network with every node up and no
// fault to come, the fair schedule (every message delivered in order,
// every timer fired) commits a new round or finishes the app.
func (w *world) live() bool {
	f := w.clone()
	f.bad = ""
	for range 400 {
		switch {
		case f.done() || f.commits > w.commits:
			return true
		case len(f.msgs) > 0:
			m := f.msgs[0]
			f.msgs = f.msgs[1:]
			f.deliver(m)
		default:
			next := move{op: 0}
			for i := range f.n {
				for t, tm := range f.nodes[i].timers {
					if next.op == 0 || tm.seq < f.nodes[next.i].timers[next.j].seq {
						next = move{'t', i, t}
					}
				}
			}
			if next.op == 0 {
				return false
			}
			f.apply(next)
		}
		f.settle()
	}
	return false
}

func (w *world) done() bool {
	for i := range w.n {
		if m := w.nodes[i].s.Master; m != nil && m.v.Done {
			return true
		}
	}
	return false
}

func (w *world) overBound() bool {
	for i := range w.n {
		for _, m := range []*img{w.nodes[i].s.Master, w.nodes[i].s.Replica} {
			if m != nil && m.v.Epoch > maxEpoch {
				return true
			}
		}
	}
	return false
}

// coverage is what a search reached.
type coverage struct {
	states, heals, round, epoch int
}

// explore searches depth first, every state within sc.depth events of the
// start, and returns, per property, the shortest event sequence that
// violates it. A state met again is expanded again only if it is met
// sooner, so each is expanded at its least depth and the shortest
// violations are found.
func explore(sc scenario) (findings map[string]string, r coverage) {
	shortest := map[string][]move{}
	seen := map[string]int{} // the most events left a state was expanded with
	var dfs func(w *world)
	dfs = func(w *world) {
		for _, mv := range w.moves() {
			c := w.clone()
			c.apply(mv)
			c.settle()
			c.path = append(slices.Clip(w.path), mv)
			if c.bad == "" && (mv.op == 'h' || mv.op == 'u') && c.cut < 0 && c.allAlive() {
				if r.heals++; !c.live() {
					c.fail("liveness after a heal")
				}
			}
			if c.bad != "" {
				if p, ok := shortest[c.bad]; !ok || len(c.path) < len(p) {
					shortest[c.bad] = c.path
				}
				continue
			}
			left := sc.depth - len(c.path)
			if c.overBound() || left == 0 {
				continue
			}
			if k := c.key(); seen[k] < left {
				seen[k] = left
				for i := range c.n {
					if m := c.nodes[i].s.Master; m != nil {
						r.round, r.epoch = max(r.round, m.v.Round), max(r.epoch, m.v.Epoch)
					}
				}
				dfs(c)
			}
		}
	}
	start := newWorld(sc)
	start.settle()
	dfs(start)
	findings = map[string]string{}
	for p, path := range shortest {
		findings[p] = replay(sc, path)
	}
	r.states = len(seen)
	return findings, r
}

// replay renders a path's events.
func replay(sc scenario, path []move) string {
	w := newWorld(sc)
	w.settle()
	w.verbose = true
	labels := make([]string, len(path))
	for k, mv := range path {
		labels[k] = w.apply(mv)
		w.settle()
	}
	return strings.Join(labels, "; ")
}

func (w *world) allAlive() bool {
	for i := range w.n {
		if !w.nodes[i].alive {
			return false
		}
	}
	return true
}

// TestExplorerFindings pins what the explorer finds in today's rules: per
// scenario, each violated property's shortest event sequence, under the
// failure class of ROADMAP item 1 it reproduces. Each search must also
// reach round 3, its epoch and a heal with every node up, or it has not
// covered its bounds. A change to the rules that fixes a class edits this
// table in the same change.
func TestExplorerFindings(t *testing.T) {
	const (
		dualEpoch    = "at most one acked master"
		replicaAhead = "no replica ahead of the acks"
		doubleCount  = "no update counted twice"
	)
	for _, c := range []struct {
		name  string
		sc    scenario
		epoch int               // the highest epoch the search must reach
		want  map[string]string // property → "(class) events"
	}{{
		// Every fault kind, two nodes.
		name:  "faults",
		sc:    scenario{n: 2, crashes: 1, cuts: 1, drops: 1, dups: 1, depth: 9},
		epoch: 2,
		want: map[string]string{
			// A restart re-claims at its journaled epoch plus one, which a
			// promotion during the outage already took: two masters ack
			// epoch 1, and only the same-epoch tie-break separates them.
			dualEpoch: "(c) n0>n1 image e0r0s; crash n0; n1 checks; n1 checks; n1 checks; restart n0",
			// Bug (ii): the beat-back carries the winner's in-flight round,
			// one ahead of every ack, and the loser keeps it as its replica.
			replicaAhead: "(e) n0>n1 image e0r0s; cut n0 off; n1 checks; n1 checks; n1 checks; n1 grace of r0 expires; heal; n0>n1 image e0r0; n1>n0 image e1r1s",
		},
	}, {
		// Three masters and every fault kind, to a shallower depth.
		name:  "three masters, every fault",
		sc:    scenario{n: 3, crashes: 1, cuts: 1, drops: 1, dups: 1, depth: 7},
		epoch: 2,
		want: map[string]string{
			dualEpoch: "(c) n0>n1 image e0r0s; crash n0; n1 checks; n1 checks; n1 checks; restart n0",
		},
	}, {
		// Three masters, a partition and no other fault, deeper.
		name:  "three masters",
		sc:    scenario{n: 3, cuts: 1, depth: 9},
		epoch: 1,
		want: map[string]string{
			// A quorum retry bumps the epoch as a promotion does, and the
			// holder cut off from it promotes from the same replica epoch.
			dualEpoch:    "(c) n0>n1 image e0r0s; w0 flush e0r1>n0; n0 hold of r1 expires; n0 hold of r1 expires; n0 hold of r1 expires; cut n0 off; n1 checks; n1 checks; n1 checks",
			replicaAhead: "(e) n0>n1 image e0r0s; cut n0 off; n1 checks; n1 checks; n1 checks; n1 grace of r0 expires; heal; n0>n1 image e0r0; n1>n0 image e1r1s",
		},
	}, {
		// A partial may outlive its instance: with the upstream epoch gate
		// the model never double counts, so class (d) needs a partial that
		// reaches another epoch's root. Flush carries no epoch, and the
		// rules fold whatever round number matches.
		name:  "leaky tree",
		sc:    scenario{n: 2, cuts: 1, leak: true, depth: 8},
		epoch: 1,
		want: map[string]string{
			doubleCount: "(d) n0>n1 image e0r0s; w0 flush e0r1>n0; cut n0 off; n1 checks; n1 checks; n1 checks; n1 grace of r0 expires; w0 flush e1r1>n1 leaks to n0",
		},
	}} {
		t.Run(c.name, func(t *testing.T) {
			found, r := explore(c.sc)
			for p, events := range found {
				want, ok := c.want[p]
				if !ok {
					t.Errorf("new finding: %s: %s", p, events)
				} else if _, seq, _ := strings.Cut(want, ") "); seq != events {
					t.Errorf("%s: %s\nwant %s", p, events, seq)
				}
			}
			for p := range c.want {
				if _, ok := found[p]; !ok {
					t.Errorf("%s no longer violated", p)
				}
			}
			if r.round < 3 || r.epoch < c.epoch || r.heals == 0 {
				t.Errorf("the search reached round %d, epoch %d and %d heals; want round 3, epoch %d and a heal", r.round, r.epoch, r.heals, c.epoch)
			}
			t.Logf("%d states", r.states)
		})
	}
}
