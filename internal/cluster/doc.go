// Package cluster scales the single-host simulation out to a fleet —
// and, since PR 5, executes that fleet as per-host sub-simulations
// merged deterministically at dispatcher epochs.
//
// A ShardedCluster is N simulated hosts, each with its own
// sim.Scheduler, hostmem.Host, faas.Runtime, reclamation backend, and
// memory broker, fronted by a dispatcher that routes invocations and
// places cold scale-ups through a pluggable Policy.
// The split mirrors real FaaS-on-hypervisor stacks (a cluster-facing
// gateway over per-host runtimes): host-local mechanisms decide *how*
// memory is reclaimed, the cluster policy decides *which* host pays
// plug latency — and, under memory pressure, whose backend pays the
// unplug latency the paper measures. That interaction is exactly what
// the cluster-* experiments sweep.
//
// # Execution model
//
// Hosts interact only through the dispatcher, and the dispatcher only
// acts at known times: trace invocations, fleet-wide memory samples,
// and the timed events of the boundary queue. The epoch engine
// (shard.go) exploits this: it advances every host to the next
// boundary with sim.Scheduler.RunUntilEpoch (events strictly before
// the boundary fire, clocks land exactly on it), runs the boundary's
// dispatcher work serially in canonical order — due queued events,
// then invocations in trace order, then the memory sample and the
// autoscaler — and repeats. Hosts are partitioned into shards that
// advance as independent tasks, concurrently when an Exec hook is
// installed; after the last boundary every host drains to the horizon
// in parallel. Completion metrics accumulate per host and merge in
// host-ID order.
//
// # Boundary queue
//
// Every dispatcher-timed event — fleet events, drain deadlines and
// autoscaler joins (fleetdyn.go), fault-window closes and opens
// (faults.go), resilience timeouts, retries and hedges
// (resilience.go), and the paced re-placement tick (repace.go) — lives
// in one queue sorted by time, FIFO at ties (boundary.go). At each
// boundary t, fireBoundary first retires finished drains, then takes
// every event due at or before t off the queue and fires them
// class-major in the canonical order: fleet events, fault closes,
// fault opens, resilience decisions (after settled attempts resolve,
// so a completion beats a same-instant timeout), re-placement ticks;
// queue order within a class. Three rules hold for every source. An
// event due before the dispatcher clock fires at the next boundary,
// never in the past. An event queued while boundary t fires is not in
// t's due set: if due at t, it fires in a second pass at t, after t's
// invocations and memory sample. A resilience decision whose flight
// has resolved, or a timeout whose attempt was withdrawn, creates no
// boundary. An event past the run's horizon (PlayConfig.DrainUntil)
// creates no boundary either, though a later invocation or tick
// boundary still fires it.
//
// # Fleet dynamics
//
// Since PR 6 the fleet's shape is itself simulated (fleetdyn.go):
// FleetEvents make hosts join, fail, or drain mid-trace, and an
// optional autoscaler turns aggregate memory pressure into delayed
// joins and drains. Node sets are layered active ⊆ live ⊆ Nodes —
// only active hosts take placements, only live hosts advance — and
// every shape change is a boundary-queue event fired with all hosts
// paused. A failed host's scheduler is simply
// never advanced again, so its pending completions and grants are
// frozen rather than cancelled; its in-flight work (tracked as
// flights) re-places through the normal dispatcher exactly once.
// Churn triggers a reshard of the live set, preserving epoch walls.
//
// # Determinism
//
// The dispatcher holds no RNG, iterates hosts in slice order, and
// breaks every tie by host ID; a host's evolution between boundaries
// is a pure function of its state at the last boundary; and nothing
// depends on the shard partition or on which worker advanced which
// host. A fleet run is therefore a pure function of its traces, its
// fleet-event schedule, and its seed, byte-identical at every shard
// count — the property TestShardCountInvariance,
// TestParallelShardsMatchSerial, and (under fuzzed churn)
// TestChurnShardInvariance pin down.
package cluster
