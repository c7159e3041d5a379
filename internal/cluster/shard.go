package cluster

import (
	"time"

	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/workload"
)

// The epoch engine: a fleet run is executed as per-host
// sub-simulations that rendezvous at every dispatcher boundary.
//
// Hosts in a fleet interact only through the dispatcher — warm
// routing, scale-up placement, admission — and the dispatcher only
// acts at known times: the invocation timestamps of the trace, the
// fleet-wide memory-sample ticks, and the events of the boundary queue
// (boundary.go). Those times are the epochs. The engine repeats three
// steps:
//
//  1. advance: every host's scheduler runs to the next boundary T with
//     sim.Scheduler.RunUntilEpoch — all host events strictly before T
//     fire, host clocks land exactly on T. Hosts are partitioned
//     across shards; each shard advances its hosts in host-ID order,
//     and shards run concurrently when an Exec hook is installed
//     (disjoint hosts, so any interleaving is equivalent).
//  2. merge: with every host paused at T, the dispatcher fires the
//     boundary work at T in canonical order — queued events
//     (fireBoundary), then invocations in trace order, then the memory
//     sample. Routing reads host state settled through T-1 plus the
//     synchronous effects of earlier boundary work at T, identically at
//     every shard count.
//  3. repeat, until the trace, ticks, and queue are exhausted; then
//     every host drains independently to the horizon.
//
// Determinism argument: a host's event stream between boundaries is a
// pure function of its state at the last boundary (host-local events
// only, host-local seeds only); the dispatcher step is serial and
// iterates hosts in ID order; completion metrics accumulate host-
// locally and merge in host-ID order. Nothing anywhere depends on the
// shard partition or on which worker advanced which host — so tables
// are byte-identical at every shard count, and the parallel wall-clock
// floor of a fleet cell drops from the whole fleet to its slowest
// host-shard.

// Invocation is one dispatcher boundary event: fn arrives at T.
type Invocation struct {
	T  sim.Time
	Fn *workload.Function
}

// PlayConfig shapes one epoch-driven fleet run.
type PlayConfig struct {
	// Shards is the number of host partitions advanced as independent
	// tasks; 0 or anything >= the live host count means one shard per
	// host, 1 means the serial unsharded path. The shard count never
	// changes results, only how much of the fleet a single task
	// advances. Membership changes re-partition the live hosts under
	// the same requested count.
	Shards int
	// TickEvery is the fleet memory-sampling cadence (0 disables);
	// samples are taken at 0, TickEvery, ... through TickUntil.
	TickEvery sim.Duration
	TickUntil sim.Time
	// DrainUntil is the horizon every host runs to after the last
	// boundary, so slow requests finish and their latencies count.
	DrainUntil sim.Time
	// Events is the churn schedule: fleet-shape changes fired at epoch
	// boundaries on simulated time (fleetdyn.go). Events need not be
	// sorted; same-time events fire in the given order. Events past
	// DrainUntil never create a boundary of their own; a later
	// invocation or tick boundary still fires them.
	Events []FleetEvent
	// Autoscale, when non-nil, drives host count from aggregate memory
	// pressure, evaluated after each memory sample — so autoscaling
	// requires TickEvery > 0.
	Autoscale *AutoscaleConfig
	// Faults is the fault plan: injection windows opened and closed at
	// epoch boundaries (faults.go). FaultSeed seeds every host's
	// probabilistic decision stream; with an empty plan the run is
	// byte-identical to a fault-free one.
	Faults    []fault.Event
	FaultSeed uint64
}

// prepareShards records the requested shard count, partitions the live
// hosts into contiguous shard groups, and builds the per-shard advance
// and drain tasks; the epoch loop re-runs the same closures against a
// shared target time, so a run allocates per shard, not per epoch.
func (c *ShardedCluster) prepareShards(shards int) {
	c.shardsWanted = shards
	c.partitionShards(false)
}

// reshard rebuilds the partition over the surviving live hosts after a
// membership change, under the same requested shard count, keeping the
// accumulated per-shard walls. Before any partition exists (churn
// scheduled against a cluster that has not started playing) it is a
// no-op; the first AdvanceTo partitions lazily.
func (c *ShardedCluster) reshard() {
	if c.shardTasks == nil {
		return
	}
	c.partitionShards(true)
}

func (c *ShardedCluster) partitionShards(keepWalls bool) {
	shards := c.shardsWanted
	if shards <= 0 || shards > len(c.live) {
		shards = len(c.live)
	}
	// Shard groups copy the membership slice: fleet-dynamics removals
	// rewrite c.live's backing array in place, and a stale alias would
	// advance the wrong hosts.
	c.shardNodes = c.shardNodes[:0]
	for s := 0; s < shards; s++ {
		lo, hi := s*len(c.live)/shards, (s+1)*len(c.live)/shards
		c.shardNodes = append(c.shardNodes, append([]*Node(nil), c.live[lo:hi]...))
	}
	c.shardTasks = make([]func(), shards)
	c.drainTasks = make([]func(), shards)
	if !keepWalls {
		c.shardWalls = make([]time.Duration, shards)
	} else if len(c.shardWalls) < shards {
		c.shardWalls = append(c.shardWalls, make([]time.Duration, shards-len(c.shardWalls))...)
	}
	for s := 0; s < shards; s++ {
		s := s
		grp := c.shardNodes[s]
		c.shardTasks[s] = func() {
			start := time.Now()
			for _, n := range grp {
				n.Sched.RunUntilEpoch(c.epochT)
			}
			c.shardWalls[s] += time.Since(start)
		}
		c.drainTasks[s] = func() {
			start := time.Now()
			for _, n := range grp {
				n.Sched.RunUntil(c.epochT)
			}
			c.shardWalls[s] += time.Since(start)
		}
	}
}

// runTasks executes one barrier round of shard tasks: through the Exec
// hook when installed, else serially in shard order. Exec must have
// run every task to completion before returning.
func (c *ShardedCluster) runTasks(tasks []func()) {
	if c.Exec != nil && len(tasks) > 1 {
		c.Exec(tasks)
		return
	}
	for _, t := range tasks {
		t()
	}
}

// AdvanceTo advances every host to the epoch boundary t: all host
// events strictly before t fire, every host clock — and the dispatcher
// clock — lands exactly on t. The dispatcher may then route
// invocations or sample memory against the paused fleet.
func (c *ShardedCluster) AdvanceTo(t sim.Time) {
	if c.shardTasks == nil {
		c.prepareShards(0)
	}
	c.epochT = t
	c.runTasks(c.shardTasks)
	c.now = t
}

// Drain runs every host through t inclusive — unlike AdvanceTo, events
// at exactly t fire too — and sets the dispatcher clock to t. The
// final drain of a run is one giant epoch: hosts no longer interact,
// so each shard runs to the horizon independently.
func (c *ShardedCluster) Drain(t sim.Time) {
	if c.shardTasks == nil {
		c.prepareShards(0)
	}
	if t < c.now {
		t = c.now
	}
	c.epochT = t
	c.runTasks(c.drainTasks)
	c.now = t
}

// ShardWalls returns the wall-clock time each shard's advance tasks
// consumed during the runs since the last prepare — the numbers behind
// `squeezyctl -cellstats`'s per-shard breakdown. With shards advanced
// in parallel, the slowest entry bounds the cell's critical path.
func (c *ShardedCluster) ShardWalls() []time.Duration { return c.shardWalls }
