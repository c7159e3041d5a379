package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The churn determinism suite: PR 5's byte-identity guarantee — tables
// invariant to shard count and worker count — tested against dynamic
// fleets. Hosts join, fail, and drain mid-trace from fuzzed schedules,
// and every run must still be a pure function of (seed, config).

// fleetEvents adapts a generated churn schedule to the cluster's event
// stream (kept local so cluster does not import trace's generator
// types beyond tests).
func fleetEvents(churn []trace.ChurnEvent) []FleetEvent {
	events := make([]FleetEvent, len(churn))
	for i, ev := range churn {
		kind := HostJoin
		switch ev.Kind {
		case trace.ChurnFail:
			kind = HostFail
		case trace.ChurnDrain:
			kind = HostDrain
		}
		events[i] = FleetEvent{T: ev.T, Kind: kind, Host: ev.Host}
	}
	return events
}

// churnTable extends the metrics fingerprint with the fleet-dynamics
// outcome: churn counters, final fleet shape, and the phase-split
// latency numbers.
func churnTable(c *ShardedCluster) string {
	base := metricsTable(c)
	m := &c.Metrics
	s := fmt.Sprintf("%s joins=%d fails=%d drains=%d repl=%d warmlost=%d nodes=%d active=%d live=%d",
		base, m.HostJoins, m.HostFails, m.HostDrains, m.Replaced, m.WarmLost,
		len(c.Nodes), c.ActiveHosts(), c.LiveHosts())
	if m.ColdPhase != nil {
		for i := 0; i < m.ColdPhase.Phases(); i++ {
			s += fmt.Sprintf(" cold[%d]=%d/%.6f lat[%d]=%d/%.6f",
				i, m.ColdPhase.Phase(i).N(), m.ColdPhase.Phase(i).P99(),
				i, m.LatPhase.Phase(i).N(), m.LatPhase.Phase(i).P99())
		}
	}
	return s
}

// poolExec runs shard tasks on a bounded worker pool — the executor
// shape the experiments runner uses at -parallel N.
func poolExec(workers int) func([]func()) {
	return func(tasks []func()) {
		var wg sync.WaitGroup
		ch := make(chan func())
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := range ch {
					f()
				}
			}()
		}
		for _, f := range tasks {
			ch <- f
		}
		close(ch)
		wg.Wait()
	}
}

// churnRun plays one pressured fleet under a fuzzed churn schedule
// with the given shard count and Exec hook, and returns the full
// fingerprint.
func churnRun(seed uint64, shards int, exec func([]func())) (uint64, string) {
	const hosts = 4
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := NewSharded(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
	}, NewPolicy("reclaim-aware", cost))
	c.Exec = exec
	churn := trace.GenChurn(seed, trace.ChurnConfig{
		Duration: dur, Events: 6, Hosts: hosts,
	})
	play(c, fleetInvs(seed, 6, dur, 6, 30), PlayConfig{
		Shards:    shards,
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
		Events:     fleetEvents(churn),
	})
	return c.Fired(), churnTable(c)
}

// TestChurnShardInvariance is the headline property: for fuzzed churn
// schedules — random join/fail/drain times, targets, and order across
// seeds — the run's fingerprint is byte-identical at shard counts
// {1, 2, hosts} and worker counts {1, 2, 8}, serial and parallel.
func TestChurnShardInvariance(t *testing.T) {
	execs := []struct {
		name string
		exec func([]func())
	}{
		{"serial", nil},
		{"pool-1", poolExec(1)},
		{"pool-2", poolExec(2)},
		{"pool-8", poolExec(8)},
		{"goroutines", goExec},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		wantFired, wantTable := churnRun(seed, 1, nil)
		if wantFired == 0 {
			t.Fatalf("seed %d: degenerate run", seed)
		}
		for _, shards := range []int{1, 2, 0 /* = hosts */} {
			for _, e := range execs {
				gotFired, gotTable := churnRun(seed, shards, e.exec)
				if gotFired != wantFired || gotTable != wantTable {
					t.Fatalf("seed %d shards=%d exec=%s diverges from serial:\n%d %s\n%d %s",
						seed, shards, e.name, gotFired, gotTable, wantFired, wantTable)
				}
			}
		}
	}
}

// TestAutoscaleShardInvariance runs the pressure-driven autoscaler —
// joins and drains decided by the run itself, not a schedule — across
// shard and worker counts and requires byte-identity, plus at least
// one scale-up so the test cannot pass vacuously.
func TestAutoscaleShardInvariance(t *testing.T) {
	run := func(shards int, exec func([]func())) (uint64, string, int) {
		dur := 25 * sim.Second
		cost := costmodel.Default()
		c := NewSharded(cost, Config{
			Hosts: 2, HostMemBytes: 12 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
		}, NewPolicy("reclaim-aware", cost))
		c.Exec = exec
		play(c, fleetInvs(9, 6, dur, 6, 30), PlayConfig{
			Shards:    shards,
			TickEvery: sim.Second, TickUntil: sim.Time(dur),
			DrainUntil: sim.Time(10 * dur),
			Autoscale: &AutoscaleConfig{
				High: 0.6, Low: 0.3, MinHosts: 1, MaxHosts: 6,
				Cooldown: 5 * sim.Second, JoinDelay: 2 * sim.Second,
			},
		})
		return c.Fired(), churnTable(c), c.Metrics.HostJoins
	}
	wantFired, wantTable, joins := run(1, nil)
	if joins == 0 {
		t.Fatal("autoscaler never scaled up; test setup is vacuous")
	}
	for _, shards := range []int{2, 0} {
		for _, exec := range []func([]func()){nil, poolExec(2), goExec} {
			gotFired, gotTable, _ := run(shards, exec)
			if gotFired != wantFired || gotTable != wantTable {
				t.Fatalf("autoscale shards=%d diverges:\n%d %s\n%d %s",
					shards, gotFired, gotTable, wantFired, wantTable)
			}
		}
	}
}

// TestFailFreezesPendingEpochWork covers a host dying "during" its own
// epoch: a long-running invocation is mid-execution on the host — its
// completion event pending between boundaries — when the host fails.
// The frozen completion must never fire; the re-placed invocation
// completes exactly once, cold, on the surviving host, paying for the
// lost work. Hand-computed reference: 1 cold completion, latency >
// the function's own cold path (arrival-to-done spans the failure).
func TestFailFreezesPendingEpochWork(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	long := workload.LongHaul()
	completions, dropped := 0, 0
	var doneAt sim.Time
	c.Invoke(long, func(res faas.Result) {
		completions++
		if res.Dropped {
			dropped++
		}
		doneAt = res.Done
	})
	failAt := 2 * sim.Second
	c.AdvanceTo(sim.Time(failAt)) // host 0 is mid-cold-start
	if got := len(c.Nodes[0].inflight); got != 1 {
		t.Fatalf("inflight on host 0 = %d, want 1", got)
	}
	c.failHost(c.Nodes[0])
	if c.Metrics.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1", c.Metrics.Replaced)
	}
	drainFor(c, 120*sim.Second)
	if completions != 1 || dropped != 0 {
		t.Fatalf("completions=%d dropped=%d, want exactly one clean completion", completions, dropped)
	}
	m := c.Stats()
	if m.ColdStarts != 1 || m.WarmStarts != 0 {
		t.Fatalf("cold=%d warm=%d, want the re-placed run to cold-start once", m.ColdStarts, m.WarmStarts)
	}
	// The run restarted from scratch at the failure: completion lands
	// after failAt plus a full cold path, and the recorded latency —
	// spanning the arrival at t=0 — pays for the lost work.
	if doneAt < sim.Time(failAt+long.ExecCPU) {
		t.Fatalf("completed at %v, before a post-failure restart could finish (failed at %v, exec alone %v)",
			doneAt, failAt, long.ExecCPU)
	}
	if got := m.ColdLatMs.Max(); got < (failAt + long.ExecCPU).Milliseconds() {
		t.Fatalf("recorded latency %.0f ms hides the lost pre-failure work", got)
	}
	if c.Nodes[1].VM(long.Name) == nil {
		t.Fatal("re-placed invocation did not land on the surviving host")
	}
}

// TestFailDuringStartedDrain: the host is already draining — placement
// ineligible, deadline armed — when it fails outright. The failure
// re-places the in-flight work immediately (not at the drain
// deadline), and the deadline later finds a dead host and must be a
// no-op: one completion, one re-placement, no double.
func TestFailDuringStartedDrain(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	long := workload.LongHaul()
	completions := 0
	c.Invoke(long, func(res faas.Result) { completions++ })
	c.AdvanceTo(sim.Time(1 * sim.Second))
	c.startDrain(c.Nodes[0])
	if got := c.ActiveHosts(); got != 1 {
		t.Fatalf("active hosts after drain start = %d, want 1", got)
	}
	c.AdvanceTo(sim.Time(2 * sim.Second))
	c.failHost(c.Nodes[0]) // dies mid-drain, before the deadline
	if c.Metrics.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1 (re-place at failure, not at deadline)", c.Metrics.Replaced)
	}
	// The armed drain deadline (t=6s) must find a dead host: no second
	// re-placement, no panic.
	c.AdvanceTo(sim.Time(10 * sim.Second))
	c.fireBoundary(sim.Time(10 * sim.Second))
	if c.Metrics.Replaced != 1 {
		t.Fatalf("drain deadline re-placed again: Replaced = %d", c.Metrics.Replaced)
	}
	drainFor(c, 120*sim.Second)
	if completions != 1 {
		t.Fatalf("completions = %d, want exactly 1", completions)
	}
	if c.Metrics.HostDrains != 1 || c.Metrics.HostFails != 1 {
		t.Fatalf("drains=%d fails=%d, want 1 each", c.Metrics.HostDrains, c.Metrics.HostFails)
	}
}

// TestFailWithQueuedScaleUpGrant is the PR 2 double-completion class
// under failure: a scale-up's memory grant is queued behind the
// broker when an instance idles and serves the request warm — the
// request detaches, the provision keeps queueing. The host then dies
// with the grant still queued. Both requests completed before the
// failure, so nothing re-places, and the frozen grant must not
// resurrect anything: exactly one completion per request.
func TestFailWithQueuedScaleUpGrant(t *testing.T) {
	// Host memory fits one BFS instance but not two, so the second
	// request's scale-up queues on the broker.
	c := newTestCluster(2, 1280*units.MiB, faas.VirtioMem, "round-robin")
	fn := workload.ByName("BFS")
	var done [2]int
	c.Invoke(fn, func(res faas.Result) { done[0]++ })
	c.Invoke(fn, func(res faas.Result) { done[1]++ })
	// Let request 1 finish: its instance idles, request 2 is served
	// warm (detaching from its queued provision).
	c.AdvanceTo(sim.Time(20 * sim.Second))
	if done[0] != 1 || done[1] != 1 {
		t.Fatalf("completions before failure = %v, want both served", done)
	}
	if got := c.Nodes[0].QueuedPages(); got == 0 {
		t.Fatal("setup: no grant queued at failure time; shrink host memory")
	}
	if got := len(c.Nodes[0].inflight); got != 0 {
		t.Fatalf("inflight = %d, want 0 (both requests completed)", got)
	}
	c.failHost(c.Nodes[0])
	if c.Metrics.Replaced != 0 {
		t.Fatalf("Replaced = %d, want 0 (nothing was in flight)", c.Metrics.Replaced)
	}
	drainFor(c, 120*sim.Second)
	if done[0] != 1 || done[1] != 1 {
		t.Fatalf("completions after failure = %v, want exactly one each (no double-complete)", done)
	}
}

// TestFailLastWarmHost: the failed host held the function's only warm
// instance. The warm pool is counted lost, the frozen keep-alive never
// fires as an eviction, and the next invocation cold-starts on the
// surviving host. Hand-computed: 2 cold starts, 0 warm, 1 warm-lost,
// 0 evictions.
func TestFailLastWarmHost(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin") // 30s keep-alive
	fn := workload.ByName("HTML")
	c.Invoke(fn, nil)
	drainFor(c, 10*sim.Second) // completed, instance idle on host 0
	if got := c.Nodes[0].RT.IdleInstances(); got != 1 {
		t.Fatalf("idle instances on host 0 = %d, want 1", got)
	}
	c.failHost(c.Nodes[0])
	if c.Metrics.WarmLost != 1 {
		t.Fatalf("WarmLost = %d, want 1", c.Metrics.WarmLost)
	}
	c.Invoke(fn, nil)
	// Drain far past the keep-alive: the dead host's eviction timer is
	// frozen and must never count (the survivor's own keep-alive still
	// runs its course).
	drainFor(c, 120*sim.Second)
	m := c.Stats()
	if m.ColdStarts != 2 || m.WarmStarts != 0 {
		t.Fatalf("cold=%d warm=%d, want 2 cold (no warm pool survives the failure)",
			m.ColdStarts, m.WarmStarts)
	}
	if got := c.Nodes[0].VMs()[0].Evictions; got != 0 {
		t.Fatalf("dead host evicted %d instances after death", got)
	}
	if c.Nodes[1].VM(fn.Name) == nil {
		t.Fatal("post-failure invocation did not cold-start on the survivor")
	}
}

// TestDrainDeadlineReplacesExactlyOnce is the regression for
// costmodel.ReclaimDrainTimeout expiry during a graceful drain:
// still-running invocations re-place exactly once — no drop, no
// double-complete — raced on real goroutines so `-race` guards the
// boundary. LongHaul outlives the 5 s grace period by construction.
func TestDrainDeadlineReplacesExactlyOnce(t *testing.T) {
	cost := costmodel.Default()
	c := NewSharded(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 2, KeepAlive: 30 * sim.Second,
	}, NewPolicy("round-robin", cost))
	c.Exec = goExec
	long := workload.LongHaul()
	var counts [2]int32 // callbacks fire on shard workers: count atomically
	for i := range counts {
		i := i
		c.Invoke(long, func(res faas.Result) {
			if !res.Dropped {
				atomic.AddInt32(&counts[i], 1)
			}
		})
	}
	if got := len(c.Nodes[0].inflight); got != 2 {
		t.Fatalf("inflight on host 0 = %d, want both placements (N=2 slack)", got)
	}
	c.AdvanceTo(sim.Time(1 * sim.Second))
	c.startDrain(c.Nodes[0])
	deadline := sim.Time(1*sim.Second + costmodel.ReclaimDrainTimeout)
	c.AdvanceTo(deadline)
	c.settleDrains() // both still running: the drain cannot settle early
	if c.LiveHosts() != 2 {
		t.Fatal("drain settled with work in flight")
	}
	c.fireBoundary(deadline)
	if c.Metrics.Replaced != 2 {
		t.Fatalf("Replaced = %d, want 2 at the drain deadline", c.Metrics.Replaced)
	}
	if c.LiveHosts() != 1 {
		t.Fatalf("live hosts = %d, want 1 after the deadline retires the host", c.LiveHosts())
	}
	drainFor(c, 120*sim.Second)
	for i := range counts {
		if got := atomic.LoadInt32(&counts[i]); got != 1 {
			t.Fatalf("request %d completed %d times, want exactly once", i, got)
		}
	}
	m := c.Stats()
	if m.Dropped != 0 || m.AdmissionDrops != 0 {
		t.Fatalf("drops = %d/%d, want none", m.Dropped, m.AdmissionDrops)
	}
}

// TestDrainSettlesWhenWorkFinishes: a drain whose work completes
// before the deadline retires at the next boundary without any
// re-placement, and the warm pool is not counted lost.
func TestDrainSettlesWhenWorkFinishes(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	fn := workload.ByName("HTML") // finishes in well under the 5 s grace
	completions := 0
	c.Invoke(fn, func(res faas.Result) { completions++ })
	c.AdvanceTo(sim.Time(500 * sim.Millisecond)) // still running
	c.startDrain(c.Nodes[0])
	c.AdvanceTo(sim.Time(4 * sim.Second)) // finished inside the grace period
	c.settleDrains()
	if c.LiveHosts() != 1 || c.ActiveHosts() != 1 {
		t.Fatalf("live=%d active=%d, want the drained host retired", c.LiveHosts(), c.ActiveHosts())
	}
	if completions != 1 || c.Metrics.Replaced != 0 || c.Metrics.WarmLost != 0 {
		t.Fatalf("completions=%d replaced=%d warmlost=%d, want graceful 1/0/0",
			completions, c.Metrics.Replaced, c.Metrics.WarmLost)
	}
}

// TestJoinedHostTakesPlacements: a join lands on the fleet clock with
// a fresh deterministic identity (next monotonic ID) and immediately
// competes for placements.
func TestJoinedHostTakesPlacements(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	c.AdvanceTo(sim.Time(5 * sim.Second))
	n := c.joinHost()
	if n.ID != 2 || c.ActiveHosts() != 3 || len(c.Nodes) != 3 {
		t.Fatalf("join shape: id=%d active=%d nodes=%d", n.ID, c.ActiveHosts(), len(c.Nodes))
	}
	if n.Sched.Now() != c.Now() {
		t.Fatalf("joined host clock %v, want fleet clock %v", n.Sched.Now(), c.Now())
	}
	// Three cold placements round-robin across all three hosts.
	for _, fn := range workload.Fleet(3) {
		c.Invoke(fn, nil)
	}
	drainFor(c, 20*sim.Second)
	if got := len(n.VMs()); got != 1 {
		t.Fatalf("joined host has %d VMs, want 1 of 3 placements", got)
	}
}

// TestFleetEventNoOps: dangling targets, dead targets, and
// last-active-host removals must all be safe no-ops — fuzzed churn
// schedules produce all of them.
func TestFleetEventNoOps(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	c.ScheduleFleetEvents([]FleetEvent{
		{T: 0, Kind: HostFail, Host: 99}, // never existed
		{T: 0, Kind: HostDrain, Host: 0}, // fine: drains host 0
		{T: 0, Kind: HostDrain, Host: 0}, // already draining
		{T: 0, Kind: HostFail, Host: 1},  // would remove the last active host
		{T: 0, Kind: HostDrain, Host: 1}, // likewise
	})
	c.fireBoundary(0)
	if c.Metrics.HostDrains != 1 || c.Metrics.HostFails != 0 {
		t.Fatalf("drains=%d fails=%d, want exactly one drain", c.Metrics.HostDrains, c.Metrics.HostFails)
	}
	if c.ActiveHosts() != 1 {
		t.Fatalf("active hosts = %d, want 1", c.ActiveHosts())
	}
}
