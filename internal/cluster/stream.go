package cluster

import (
	"fmt"

	"squeezy/internal/sim"
)

// InvocationStream is the dispatcher's pull-based invocation source:
// the epoch loop peeks the next arrival time to pick each boundary,
// then pops every invocation due at that boundary. A streaming source
// (e.g. a merged trace cursor) holds O(funcs) state, so a multi-day
// million-invocation replay never materializes its trace. Times must
// be non-decreasing.
type InvocationStream interface {
	// Peek returns the arrival time of the next invocation without
	// consuming it; ok is false when the stream is exhausted.
	Peek() (t sim.Time, ok bool)
	// Next consumes and returns the next invocation.
	Next() (Invocation, bool)
}

// PlayStream replays a time-sorted invocation stream through the
// dispatcher under the epoch protocol (see the package comment in
// shard.go). It leaves every host at DrainUntil and the merged fleet
// metrics ready in Stats(). The stream is consumed exactly once, one
// boundary at a time: peak memory is bounded by the stream's own
// cursor state plus the fleet, independent of how many invocations
// flow through — the property the memory-bound regression test
// asserts for million-invocation multi-day runs.
func (c *ShardedCluster) PlayStream(src InvocationStream, pc PlayConfig) {
	c.prepareShards(pc.Shards)
	c.autoscale = pc.Autoscale
	c.ScheduleFleetEvents(pc.Events)
	c.ScheduleFaults(pc.Faults, pc.FaultSeed)
	ticks := pc.TickEvery > 0
	if ticks {
		// Pre-size the fleet memory series for the full tick count: a
		// multi-day run at 1 s cadence appends hundreds of thousands of
		// points, and growing through repeated appends would double the
		// buffers a dozen times mid-run.
		if n := int(pc.TickUntil/sim.Time(pc.TickEvery)) + 1; n > 0 {
			c.Metrics.Committed.Reserve(n)
			c.Metrics.Populated.Reserve(n)
		}
	}
	var nextTick sim.Time
	for {
		// Next boundary: the earliest of the boundary queue, the next
		// invocation, and the next tick.
		t, have := c.nextBoundary(pc.DrainUntil)
		if it, ok := src.Peek(); ok && (!have || it < t) {
			t, have = it, true
		}
		if ticks && nextTick <= pc.TickUntil && (!have || nextTick < t) {
			t, have = nextTick, true
		}
		if !have {
			break
		}
		if t < c.now {
			panic(fmt.Sprintf("cluster: invocation stream not sorted: %d after %d", t, c.now))
		}
		c.AdvanceTo(t)
		// Queued events fire first, then invocations route in trace
		// order, then the memory sample and the autoscaler.
		c.fireBoundary(t)
		for {
			it, ok := src.Peek()
			if !ok || it != t {
				break
			}
			inv, _ := src.Next()
			c.Invoke(inv.Fn, nil)
		}
		if ticks && nextTick == t && t <= pc.TickUntil {
			c.SampleMemory()
			nextTick += sim.Time(pc.TickEvery)
			c.autoscaleTick()
		}
	}
	c.Drain(pc.DrainUntil)
	c.finishResil()
}
