package simnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"totoro/internal/transport"
)

// Parallel windows (DESIGN.md §4.8).
//
// A message arrives no sooner than the link latency L after it is sent
// (send: arrival = txEnd + latency + extra, with txEnd ≥ now and extra ≥ 0).
// Let T be the earliest pending event. No event due in the window [T, T+L)
// — and none that the window's own events schedule inside it — is a
// message sent in the window: each is a node's own timer, or the arrival or
// ingress of a message sent before T. In an isolated fleet (Config.Isolated)
// a node's events touch only that node, so the window's events can run on
// several lanes at once, each lane running its nodes' events in their own
// (at, seq) order.
//
// The serial loop numbers every event it schedules with the next seq, and
// that number orders events due at one instant. A lane cannot know it: it
// depends on what the other lanes schedule. The lane numbers its own
// creations base+1, base+2, … instead, base being n.seq when the window
// opened, and logs every event it runs. Inside one node that key orders
// events as seq does: an event pending at the window's start precedes every
// creation of the window, and the node's creations follow their order of
// creation. So each lane's log is the serial order restricted to its nodes.
// At the barrier one merge of the logs by (at, seq) replays the serial
// order, and gives each creation, in that order, the seq the serial loop
// gave it: its creator was merged before it, from the same log. The queue
// then holds the keys the serial loop's holds, and n.seq and n.now end
// equal.
//
// A window runs serially when the fleet is not isolated; when a link rule, a
// blocked link, an invariant or an Observer is installed (their draws and
// checks follow the global order); when it holds a global timer (a nemesis
// phase acts on the whole fleet); when GOMAXPROCS is 1; and when it holds
// fewer than minWindow events, too few to pay for a barrier.

// minWindow is the fewest live events a window needs to run in parallel.
const minWindow = 64

// lane is one loop worker's share of a parallel window.
type lane struct {
	now  time.Duration
	end  time.Duration // the window's: an event due before it runs in it
	base uint64        // n.seq when the window opened
	free []*event
	// in holds the window's pending events of the lane's nodes, in (at, seq)
	// order; local the lane's creations that are due inside the window,
	// keyed (at, base + creation number).
	in    []queued
	local radixQueue
	made  []madeEvent
	log   []doneEvent
	// delivered counts handoffs, added to net.delivered at the barrier.
	delivered int64
	// want is len(in) when the window opened: the lane starts with at least
	// that many free events and keeps at most twice as many.
	want int
	// next and merged are the merge's cursors in log and made.
	next, merged int
}

// madeEvent is an event a lane created, in creation order.
type madeEvent struct {
	at time.Duration
	// ev is the event, to be queued at the merge; nil for one due inside the
	// window, which the lane ran or dropped cancelled and whose slot it may
	// have reused since.
	ev  *event
	seq uint64 // the serial seq, given at the merge
}

// doneEvent is one event a lane ran, in the lane's order.
type doneEvent struct {
	at  time.Duration
	key uint64 // a pending event's seq, or base + creation number
	// made is len(lane.made) after the event ran: it created the events
	// after the previous entry's made, up to this one.
	made int
	// recycle is the message the event delivered, to be recycled at the
	// merge (nil if none).
	recycle transport.Recycler
}

// addrHash is the simNode.hash of addr.
func addrHash(addr transport.Addr) uint32 { return uint32(hashAddr(addr) >> 32) }

// lane is the lane that runs the events of the node whose hash is h.
func (n *Network) lane(h uint32) *lane {
	return n.lanes[uint64(h)*uint64(len(n.lanes))>>32]
}

// crew is the goroutines that run a window's lanes beside the loop's own:
// GOMAXPROCS−1 of them, started by a Run's first parallel window and
// joined when the Run returns. Whoever is free claims the next lane, so a
// worker that the scheduler has not run yet (a training job holds its core)
// holds nothing up: the loop runs the lanes itself.
type crew struct {
	wake []chan struct{} // one per worker, buffered; nil when stopped
	exit sync.WaitGroup
	// claim is the window's number << 32 | the next lane to claim, and left
	// counts the lanes not finished. The worker that finishes a window's
	// last lane sends on done.
	claim atomic.Uint64
	left  atomic.Int32
	done  chan struct{}
	gen   uint64
}

// lanesPerCore is how many lanes a window has per core: with more lanes
// than workers, a worker that finishes early takes another lane instead of
// waiting for the slowest at the barrier.
const lanesPerCore = 4

// openLanes reports whether this Run may use parallel windows, and sizes
// the lanes to GOMAXPROCS. The crew starts with the first parallel window.
func (n *Network) openLanes() bool {
	p := runtime.GOMAXPROCS(0)
	if !n.cfg.Isolated || n.cfg.Observer != nil || len(n.invariants) > 0 || n.latency <= 0 || p < 2 {
		return false
	}
	if len(n.lanes) != p*lanesPerCore {
		n.lanes = make([]*lane, p*lanesPerCore)
		for i := range n.lanes {
			n.lanes[i] = new(lane)
		}
	}
	return true
}

// closeLanes stops and joins the crew at the end of a Run.
func (n *Network) closeLanes() {
	for _, w := range n.crew.wake {
		close(w)
	}
	n.crew.wake = nil
	n.crew.exit.Wait()
}

// work is a crew goroutine: it runs lanes whenever woken, until closeLanes.
func (n *Network) work(wake <-chan struct{}) {
	defer n.crew.exit.Done()
	for range wake {
		if n.runLanes() {
			n.crew.done <- struct{}{}
		}
	}
}

// runLanes runs the current window's unclaimed lanes until none is left,
// and reports whether it finished the window's last one.
func (n *Network) runLanes() (last bool) {
	c := &n.crew
	for {
		v := c.claim.Load()
		i := int(uint32(v))
		if i >= len(n.lanes) {
			return last
		}
		if c.claim.CompareAndSwap(v, v+1) {
			n.runLane(n.lanes[i])
			last = c.left.Add(-1) == 0
		}
	}
}

// window runs the live events due before end in parallel and returns how
// many ran. ok is false, with nothing run, when the window must run
// serially.
func (n *Network) window(end time.Duration) (steps int, ok bool) {
	if len(n.rules) > 0 || len(n.blocked) > 0 {
		return 0, false
	}
	live, global := 0, false
	for n.queue.len() > 0 && n.queue.peek().at < end {
		q := n.queue.pop()
		ev := q.ev
		var l *lane
		switch {
		case ev.kind == evCancelled:
			n.release(ev)
			continue
		case ev.kind != evTimer:
			l = n.lane(ev.hash)
		case ev.node != nil:
			l = n.lane(ev.node.hash)
		default:
			global, l = true, n.lanes[0]
		}
		l.in = append(l.in, q)
		live++
		if global {
			break
		}
	}
	if global || (live < minWindow && !n.force) {
		for _, l := range n.lanes {
			for _, q := range l.in {
				n.queue.push(q)
			}
			l.in = l.in[:0]
		}
		return 0, false
	}

	for _, l := range n.lanes {
		l.base, l.end, l.want = n.seq, end, len(l.in)
		if k := min(l.want-len(l.free), len(n.free)); k > 0 {
			l.free = append(l.free, n.free[len(n.free)-k:]...)
			n.free = n.free[:len(n.free)-k]
		}
	}
	n.par = true
	c := &n.crew
	if c.wake == nil {
		c.done = make(chan struct{}, 1)
		c.wake = make([]chan struct{}, len(n.lanes)/lanesPerCore-1)
		c.exit.Add(len(c.wake))
		for i := range c.wake {
			c.wake[i] = make(chan struct{}, 1)
			//lint:ignore gofunc the event loop's own crew: GOMAXPROCS-1 goroutines, joined at every window's barrier and stopped when Run returns
			go n.work(c.wake[i])
		}
	}
	c.left.Store(int32(len(n.lanes)))
	c.gen++
	c.claim.Store(c.gen << 32)
	for _, w := range c.wake {
		select {
		case w <- struct{}{}:
		default: // still awake from an earlier window
		}
	}
	if !n.runLanes() {
		<-c.done
	}
	n.par = false
	n.windows++
	return n.merge(), true
}

// runLane runs the lane's share of the window: its pending events and its
// own creations due inside the window, in (at, key) order.
func (n *Network) runLane(l *lane) {
	i := 0
	for {
		var q queued
		switch {
		case i < len(l.in) && (l.local.len() == 0 || l.in[i].before(l.local.peek())):
			q = l.in[i]
			i++
		case l.local.len() > 0:
			q = l.local.pop()
		default:
			return
		}
		e := *q.ev
		l.release(q.ev)
		if e.kind == evCancelled {
			continue
		}
		l.now = q.at
		l.log = append(l.log, doneEvent{at: q.at, key: q.seq})
		n.fire(&e)
		l.log[len(l.log)-1].made = len(l.made)
	}
}

// schedule is Network.schedule inside a parallel window: the event gets the
// lane's next provisional key, and waits for the merge unless it is due
// inside the window.
//
//vet:noalloc amortized
func (l *lane) schedule(d time.Duration) *event {
	var ev *event
	if k := len(l.free); k > 0 {
		ev = l.free[k-1]
		l.free = l.free[:k-1]
	} else {
		ev = new(event)
	}
	at := l.now + d
	l.made = append(l.made, madeEvent{at: at})
	ev.seq = l.base + uint64(len(l.made))
	if at < l.end {
		l.local.push(queued{at: at, seq: ev.seq, ev: ev})
	} else {
		l.made[len(l.made)-1].ev = ev
	}
	return ev
}

// release is Network.release onto the lane's free list.
//
//vet:noalloc amortized
func (l *lane) release(ev *event) {
	*ev = event{}
	l.free = append(l.free, ev)
}

// seqOf is the serial seq of a logged key.
func (l *lane) seqOf(key uint64) uint64 {
	if key <= l.base {
		return key
	}
	return l.made[key-l.base-1].seq
}

// merge replays the lanes' logs in (at, seq) order: each creation gets its
// serial seq and, if it is due after the window, its place in the queue;
// deferred Recycle calls run in the serial order. It returns how many
// events the window ran.
func (n *Network) merge() (steps int) {
	for {
		var best *lane
		var at time.Duration
		var seq uint64
		for _, l := range n.lanes {
			if l.next == len(l.log) {
				continue
			}
			d := &l.log[l.next]
			if s := l.seqOf(d.key); best == nil || d.at < at || (d.at == at && s < seq) {
				best, at, seq = l, d.at, s
			}
		}
		if best == nil {
			break
		}
		d := &best.log[best.next]
		best.next++
		for ; best.merged < d.made; best.merged++ {
			n.seq++
			m := &best.made[best.merged]
			m.seq = n.seq
			if m.ev != nil {
				n.queue.push(queued{at: m.at, seq: n.seq, ev: m.ev})
			}
		}
		if d.recycle != nil {
			d.recycle.Recycle()
		}
		n.now = at
		steps++
	}
	for _, l := range n.lanes {
		n.delivered.Add(l.delivered)
		clear(l.log) // drop the delivered messages
		l.in, l.log, l.made = l.in[:0], l.log[:0], l.made[:0]
		l.next, l.merged, l.delivered = 0, 0, 0
		if k := len(l.free) - 2*l.want; k > 0 {
			n.free = append(n.free, l.free[len(l.free)-k:]...)
			l.free = l.free[:len(l.free)-k]
		}
	}
	return steps
}
