package cluster

import (
	"slices"

	"squeezy/internal/sim"
)

// The boundary queue holds every dispatcher-timed event; its order,
// lateness, and moot rules are the package comment's "Boundary queue"
// section. The epoch loop asks nextBoundary for the earliest live
// event and fires everything due with fireBoundary.

// boundaryClass is an event's slot in the canonical boundary order;
// the constant order is the firing order.
type boundaryClass uint8

const (
	classFleet      boundaryClass = iota // fleet event, drain deadline, autoscaler join
	classFaultClose                      // fault window expiry
	classFaultOpen                       // fault window opening
	classResil                           // timeout, retry launch, hedge launch
	classRepace                          // paced re-placement tick
)

// boundaryEvent is one dispatcher-timed event; the payload field
// matching its class is set.
type boundaryEvent struct {
	T     sim.Time
	class boundaryClass
	fleet FleetEvent
	win   *openFault // classFaultClose and classFaultOpen
	resil resilEvent
}

// pushBoundary inserts e keeping the queue sorted by T, FIFO among
// equal times.
func (c *ShardedCluster) pushBoundary(e boundaryEvent) {
	i := len(c.bq)
	for i > 0 && c.bq[i-1].T > e.T {
		i--
	}
	c.bq = append(c.bq, boundaryEvent{})
	copy(c.bq[i+1:], c.bq[i:])
	c.bq[i] = e
}

// nextBoundary reports the time of the earliest live queued event,
// clamped to the dispatcher clock, provided the event is due no later
// than horizon. Moot head events are dropped on the way; the check
// reads only state settled at the last boundary, so it is shard- and
// worker-invariant.
func (c *ShardedCluster) nextBoundary(horizon sim.Time) (sim.Time, bool) {
	for len(c.bq) > 0 && c.bq[0].class == classResil {
		r := c.bq[0].resil
		if !r.fl.resolved && (r.kind != attemptTimeout || !(r.att.cancelled || r.att.dead)) {
			break
		}
		c.bq[0] = boundaryEvent{}
		c.bq = c.bq[1:]
	}
	if len(c.bq) == 0 || c.bq[0].T > horizon {
		return 0, false
	}
	return max(c.bq[0].T, c.now), true
}

// fireBoundary runs the dispatcher's boundary work at t, with every
// host paused there: finished drains retire, then every event due at
// or before t fires in canonical order — fleet events, fault closes,
// fault opens, resilience decisions, the re-placement tick. Settled
// attempts resolve just before the resilience class, so a completion
// beats a same-instant timeout. The due set is taken off the queue
// before any event fires, so work queued now waits for the next pass.
func (c *ShardedCluster) fireBoundary(t sim.Time) {
	c.settleDrains()
	n := 0
	for n < len(c.bq) && c.bq[n].T <= t {
		n++
	}
	due := c.bq[:n:n]
	c.bq = c.bq[n:]
	slices.SortStableFunc(due, func(a, b boundaryEvent) int { return int(a.class) - int(b.class) })
	resolved := false
	for _, e := range due {
		if !resolved && e.class >= classResil {
			c.resolveSettled()
			resolved = true
		}
		switch e.class {
		case classFleet:
			c.applyFleetEvent(e.fleet)
		case classFaultClose:
			c.closeFault(e.win)
		case classFaultOpen:
			c.openFaultWindow(e.win)
		case classResil:
			if r := e.resil; !r.fl.resolved {
				switch r.kind {
				case attemptTimeout:
					c.timeoutAttempt(r.fl, r.att)
				case retryLaunch:
					c.launchAttempt(r.fl)
				case hedgeLaunch:
					c.hedgeAttempt(r.fl)
				}
			}
		case classRepace:
			c.fireRepace(t)
		}
	}
	if !resolved {
		c.resolveSettled()
	}
	clear(due) // the queue no longer owns these; drop their pointers
}
