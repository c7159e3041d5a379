package cluster

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// Recovery-storm control: when a whole rack dies, the exactly-once
// re-placement machinery would otherwise route every displaced
// invocation onto the survivors at one epoch boundary — a synchronized
// burst of boots and scale-ups against a fleet that just lost a chunk
// of its capacity. With Config.Repace set, displaced work instead
// enters a priority-ordered queue that the dispatcher drains at a
// bounded rate on its own timed boundaries, so the recovery load
// spreads over simulated time. The queue is dispatcher-owned serial
// state and its tick is a boundary-queue event (see "Boundary queue"
// in the package comment), so pacing is byte-identical at every shard
// and worker count.

// RepaceConfig turns on paced re-placement (Config.Repace; nil
// preserves immediate re-placement bit-for-bit). Zero-valued fields
// take the costmodel defaults.
type RepaceConfig struct {
	// PerTick bounds the displaced invocations re-dispatched per pacing
	// tick. Default costmodel.RepacePerTick.
	PerTick int
	// Every is the pacing cadence. Default costmodel.RepaceEvery.
	Every sim.Duration
	// Shed extends admission shedding through the recovery window: the
	// queued backlog's memory demand joins the broker-queued pages in
	// the overload signal (shouldShed), and the plain dispatch path
	// sheds on it too, so a 25%-capacity loss degrades by dropping
	// low-priority work instead of burying the survivors.
	Shed bool
}

// withDefaults fills the zero-valued fields from the cost-model
// constants.
func (r RepaceConfig) withDefaults() RepaceConfig {
	if r.PerTick <= 0 {
		r.PerTick = costmodel.RepacePerTick
	}
	if r.Every <= 0 {
		r.Every = costmodel.RepaceEvery
	}
	return r
}

// repaceEntry is one displaced invocation: a plain-path flight or a
// resilient rflight, its function, and the host it was displaced from
// (for the dispatch-time trace instant).
type repaceEntry struct {
	fn   *workload.Function
	fl   *flight
	rfl  *rflight
	from int
}

// displace re-places one invocation displaced by a host failure or
// drain expiry: through the pacing queue when recovery-storm control is
// on, immediately otherwise.
func (c *ShardedCluster) displace(e repaceEntry) {
	if c.repace != nil {
		c.queueRepace(e)
		return
	}
	c.dispatchRepace(e)
}

// queueRepace admits one displaced invocation to the pacing queue,
// keeping it sorted by descending priority, FIFO within a priority
// class, and arms the pacing tick if it isn't already. Runs serially
// at a boundary (re-placement is always boundary work).
func (c *ShardedCluster) queueRepace(e repaceEntry) {
	c.Metrics.Paced++
	if c.fleetObs != nil {
		c.fleetObs.Count("repace/queued", 1)
		c.fleetObs.Instant("replace-queued: "+e.fn.Name, obs.CatInvoke,
			obs.I("from_host", int64(e.from)), obs.I("depth", int64(len(c.repaceQ)+1)))
	}
	i := len(c.repaceQ)
	for i > 0 && c.repaceQ[i-1].fn.Priority < e.fn.Priority {
		i--
	}
	c.repaceQ = append(c.repaceQ, repaceEntry{})
	copy(c.repaceQ[i+1:], c.repaceQ[i:])
	c.repaceQ[i] = e
	if !c.repaceArmed {
		c.repaceArmed = true
		c.pushBoundary(boundaryEvent{T: c.now.Add(c.repace.Every), class: classRepace})
	}
}

// fireRepace releases up to PerTick queued re-placements at boundary t
// and re-arms the tick while work remains.
func (c *ShardedCluster) fireRepace(t sim.Time) {
	budget := c.repace.PerTick
	for budget > 0 && len(c.repaceQ) > 0 {
		e := c.repaceQ[0]
		c.repaceQ[0] = repaceEntry{}
		c.repaceQ = c.repaceQ[1:]
		budget--
		c.dispatchRepace(e)
	}
	c.repaceArmed = len(c.repaceQ) > 0
	if c.repaceArmed {
		c.pushBoundary(boundaryEvent{T: t.Add(c.repace.Every), class: classRepace})
	}
}

// dispatchRepace re-places one displaced invocation through the normal
// machinery. Replaced counts here — at actual re-dispatch, paced or
// not.
func (c *ShardedCluster) dispatchRepace(e repaceEntry) {
	if e.rfl != nil && e.rfl.resolved {
		return // a surviving racer won while this one waited
	}
	c.Metrics.Replaced++
	if c.fleetObs != nil {
		c.fleetObs.Count("replaced", 1)
		c.fleetObs.Instant("replace: "+e.fn.Name, obs.CatInvoke,
			obs.I("from_host", int64(e.from)))
	}
	if e.rfl != nil {
		c.launchAttempt(e.rfl)
		return
	}
	c.route(e.fl)
}

// repaceBacklogPages sums the queued re-placements' memory demand —
// displaced work the fleet has promised to serve but not yet placed.
// It joins the broker-queued pages in the admission-shed signal, so
// the overload measure sees a rack's worth of displaced demand the
// moment the rack dies, not only after the queue drains onto brokers.
func (c *ShardedCluster) repaceBacklogPages() int64 {
	var pages int64
	for _, e := range c.repaceQ {
		pages += units.BytesToPages(e.fn.MemoryLimit)
	}
	return pages
}
