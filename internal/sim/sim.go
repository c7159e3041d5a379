package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	abs := d
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	case abs >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds returns the time as a floating-point number of seconds since
// simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is a handle to a scheduled callback. It is a small value, cheap
// to copy and to keep in structs; the zero value is inert (Cancel and
// Canceled are no-ops on it).
//
// Cancel prevents a pending event from firing; cancelling an
// already-fired, already-cancelled, or zero event is a no-op. The
// underlying event record is recycled once the event fires or its
// cancelled record is discarded; a generation counter makes stale
// handles harmless, so holding an Event past its firing is safe.
type Event struct {
	s    *Scheduler
	idx  int32
	gen  uint32
	when Time
}

// When returns the virtual time at which the event is (or was) scheduled
// to fire.
func (e Event) When() Time { return e.when }

// Cancel marks the event so it will not fire. Safe to call repeatedly,
// after the event has fired, and on the zero Event.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	n := &e.s.nodes[e.idx]
	if n.gen == e.gen {
		n.canceled = true
	}
}

// Canceled reports whether the event is pending and has been cancelled.
// Once the event has fired or its record has been discarded, Canceled
// reports false.
func (e Event) Canceled() bool {
	if e.s == nil {
		return false
	}
	n := &e.s.nodes[e.idx]
	return n.gen == e.gen && n.canceled
}

// node is one scheduled event's record, recycled through the arena
// free-list. gen increments on every recycle so stale Event handles
// cannot touch a reused record. The ordering keys live in the queue
// entries (heapEntry), not here.
type node struct {
	fn       func()
	gen      uint32
	canceled bool
}

// heapEntry is the queue-resident form of a pending event: ordering
// keys inline (no pointer chase during sift) plus the arena index of
// its node.
type heapEntry struct {
	when Time
	seq  uint64
	idx  int32
}

func entryLess(a, b heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Scheduler is a deterministic discrete-event scheduler over virtual
// time. The zero value is ready to use. Scheduler is not safe for
// concurrent use; the simulation is single-threaded by design.
type Scheduler struct {
	now   Time
	seq   uint64
	fired uint64

	nodes []node  // event record arena
	free  []int32 // recycled arena slots

	heap []heapEntry // pending events, min-heap by (when, seq)
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending (possibly cancelled) events.
func (s *Scheduler) Len() int { return len(s.heap) }

// Fired returns the total number of events that have fired.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past panics: that is always a simulation bug, not a recoverable
// condition.
func (s *Scheduler) At(t Time, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.nodes = append(s.nodes, node{})
		idx = int32(len(s.nodes) - 1)
	}
	n := &s.nodes[idx]
	n.fn = fn
	n.canceled = false
	e := heapEntry{when: t, seq: s.seq, idx: idx}
	s.seq++
	s.heapPush(e)
	return Event{s: s, idx: idx, gen: n.gen, when: t}
}

// After schedules fn to run d nanoseconds from now. Negative d is
// clamped to zero.
func (s *Scheduler) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// recycle returns a node to the free-list, bumping its generation so
// outstanding Event handles go stale.
func (s *Scheduler) recycle(idx int32) {
	n := &s.nodes[idx]
	n.fn = nil
	n.gen++
	s.free = append(s.free, idx)
}

// maxTime is the far end of virtual time, used as a no-op firing limit.
const maxTime = Time(1<<63 - 1)

// fire advances the clock to the entry's timestamp and runs its
// callback. The entry must already be consumed from its queue.
func (s *Scheduler) fire(e heapEntry) {
	s.now = e.when
	s.fired++
	fn := s.nodes[e.idx].fn
	// Recycle before firing: the callback may schedule new events that
	// reuse the slot, and stale handles are generation-checked.
	s.recycle(e.idx)
	fn()
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It returns false if no events remain. Cancelled events are
// discarded without firing.
func (s *Scheduler) Step() bool {
	e, ok := s.next(true, maxTime)
	if !ok {
		return false
	}
	s.fire(e)
	return true
}

// Run fires events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil fires all events with timestamps <= t, then advances the
// clock to exactly t. Events scheduled after t remain pending. The
// limit is pushed into the queue lookup so each fired event resolves
// the queue head exactly once.
func (s *Scheduler) RunUntil(t Time) {
	for {
		e, ok := s.next(true, t)
		if !ok {
			break
		}
		s.fire(e)
	}
	if t > s.now {
		s.now = t
	}
}

// RunFor runs the simulation for d nanoseconds of virtual time.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Jump advances the clock to exactly t without firing anything. It is
// the host-join primitive of the fleet dynamics layer: a freshly built
// scheduler starts at time zero, and a host joining a fleet mid-run
// must land on the fleet's epoch boundary before any work is routed to
// it. Jumping over pending work would silently drop it, so Jump panics
// if any pending event is scheduled strictly before t; events at
// exactly t stay pending, matching RunUntilEpoch's boundary semantics.
func (s *Scheduler) Jump(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: jumping to %d before now %d", t, s.now))
	}
	if next, ok := s.NextEventTime(); ok && next < t {
		panic(fmt.Sprintf("sim: jump to %d over pending event at %d", t, next))
	}
	s.now = t
}

// RunUntilEpoch fires all events with timestamps strictly before t,
// then advances the clock to exactly t. Events scheduled at t itself
// stay pending and fire on the next run call, after anything a caller
// schedules at t once the clock has landed there.
//
// This is the primitive epoch-lockstep execution is built on: a host
// simulation advanced with RunUntilEpoch(t) has fully settled the past
// but has not yet consumed the present, so a coordinator paused at t
// can read the host's pre-t state and schedule new work at t before
// the host's own t-stamped backlog is allowed to fire. Ordering stays
// deterministic: pending events at t keep their insertion sequence and
// precede anything the coordinator schedules at t.
func (s *Scheduler) RunUntilEpoch(t Time) {
	if t > 0 {
		s.RunUntil(t - 1)
	}
	if t > s.now {
		s.now = t
	}
}

// NextEventTime returns the timestamp of the earliest pending event and
// true, or zero and false if the queue is empty.
func (s *Scheduler) NextEventTime() (Time, bool) {
	e, ok := s.next(false, maxTime)
	if !ok {
		return 0, false
	}
	return e.when, true
}

// next returns the earliest live event, dropping cancelled events that
// have reached the front of the queue. With consume it also removes the
// returned event — unless the event is after limit, in which case it is
// left queued and ok is false.
func (s *Scheduler) next(consume bool, limit Time) (heapEntry, bool) {
	// Drop cancelled heads lazily — no heap churn beyond the pop the
	// entry would have cost anyway, and no churn at Cancel time.
	for len(s.heap) > 0 && s.nodes[s.heap[0].idx].canceled {
		s.recycle(s.heap[0].idx)
		s.heapPop()
	}
	if len(s.heap) == 0 || s.heap[0].when > limit {
		return heapEntry{}, false
	}
	e := s.heap[0]
	if consume {
		s.heapPop()
	}
	return e, true
}

// --- binary heap ---

func (s *Scheduler) heapPush(e heapEntry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.heap = h
}

func (s *Scheduler) heapPop() {
	h := s.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && entryLess(h[r], h[l]) {
			c = r
		}
		if !entryLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
}
