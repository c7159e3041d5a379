package cluster

import (
	"fmt"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

func newTestCluster(hosts int, hostMem int64, kind faas.BackendKind, policy string) *ShardedCluster {
	cost := costmodel.Default()
	return NewSharded(cost, Config{
		Hosts: hosts, HostMemBytes: hostMem, Backend: kind, N: 4,
		KeepAlive: 30 * sim.Second,
	}, NewPolicy(policy, cost))
}

// drainFor runs every host d further and parks the dispatcher there.
func drainFor(c *ShardedCluster, d sim.Duration) { c.Drain(c.Now().Add(d)) }

// boundaryStep drives the dispatcher's boundary work the way PlayStream
// does, in fixed 500 ms steps up to until. Manual-mode tests need it:
// outside PlayStream nothing else fires queued events, so retries,
// hedges, drain deadlines and paced re-placements would never happen.
func boundaryStep(c *ShardedCluster, until sim.Time) {
	for t := c.Now(); t < until; {
		t = min(t.Add(500*sim.Millisecond), until)
		c.AdvanceTo(t)
		c.fireBoundary(t)
	}
}

func TestWarmAffinityReusesInstance(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	fn := workload.ByName("HTML")
	c.Invoke(fn, nil)
	drainFor(c, 20*sim.Second)
	if c.Stats().ColdStarts != 1 {
		t.Fatalf("cold starts = %d, want 1", c.Stats().ColdStarts)
	}
	// Round-robin would pick host 1 next, but the idle instance on
	// host 0 must win.
	c.Invoke(fn, nil)
	drainFor(c, 20*sim.Second)
	if c.Stats().WarmStarts != 1 {
		t.Fatalf("warm starts = %d, want 1", c.Stats().WarmStarts)
	}
	if c.VMCount() != 1 {
		t.Fatalf("VM count = %d, want 1 (warm routing must not boot a second VM)", c.VMCount())
	}
}

func TestRoundRobinSpreadsColdPlacements(t *testing.T) {
	c := newTestCluster(3, 0, faas.Squeezy, "round-robin")
	for _, fn := range workload.Fleet(3) {
		c.Invoke(fn, nil)
	}
	drainFor(c, 20*sim.Second)
	for i, n := range c.Nodes {
		if len(n.VMs()) != 1 {
			t.Fatalf("host %d has %d VMs, want 1 each under round-robin", i, len(n.VMs()))
		}
	}
}

func TestLeastLoadedBalancesInstances(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "least-loaded")
	fns := workload.Fleet(4)
	// Sequential cold starts: each placement should land on the host
	// with fewer live instances, alternating hosts.
	for _, fn := range fns {
		c.Invoke(fn, nil)
		drainFor(c, sim.Second)
	}
	drainFor(c, 20*sim.Second)
	a, b := c.Nodes[0].LiveInstances(), c.Nodes[1].LiveInstances()
	if a != b {
		t.Fatalf("instance imbalance %d vs %d under least-loaded", a, b)
	}
}

func TestHeadroomAvoidsFullHost(t *testing.T) {
	c := newTestCluster(2, 8*units.GiB, faas.Squeezy, "headroom")
	// Tie down most of host 0's memory out-of-band: headroom must place
	// every cold start on host 1.
	if !c.Nodes[0].Host.TryCommit(units.BytesToPages(7 * units.GiB)) {
		t.Fatal("setup commit failed")
	}
	for _, fn := range workload.Fleet(3) {
		c.Invoke(fn, nil)
	}
	drainFor(c, 20*sim.Second)
	if got := len(c.Nodes[0].VMs()); got != 0 {
		t.Fatalf("headroom booted %d VMs on the full host", got)
	}
	if got := len(c.Nodes[1].VMs()); got != 3 {
		t.Fatalf("host 1 has %d VMs, want 3", got)
	}
}

func TestAdmissionDropWhenFleetFull(t *testing.T) {
	// 256 MiB hosts cannot back any VM boot footprint.
	c := newTestCluster(2, 256*units.MiB, faas.VirtioMem, "headroom")
	dropped := false
	c.Invoke(workload.ByName("HTML"), func(res faas.Result) { dropped = res.Dropped })
	drainFor(c, sim.Second)
	if !dropped || c.Metrics.AdmissionDrops != 1 {
		t.Fatalf("dropped=%v admissionDrops=%d, want drop", dropped, c.Metrics.AdmissionDrops)
	}
	if c.VMCount() != 0 {
		t.Fatalf("VM count = %d on an unbackable fleet", c.VMCount())
	}
}

func TestReclaimAwarePenaltyOrdersBackends(t *testing.T) {
	m := costmodel.Default()
	bytes := int64(768 * units.MiB)
	sq := UnplugEstimate(m, faas.Squeezy, bytes)
	vm := UnplugEstimate(m, faas.VirtioMem, bytes)
	st := UnplugEstimate(m, faas.Static, bytes)
	if !(sq < vm && vm < st) {
		t.Fatalf("unplug estimates out of order: squeezy=%v virtio-mem=%v static=%v", sq, vm, st)
	}
	if UnplugEstimate(m, faas.Squeezy, 0) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
}

func TestReclaimAwarePrefersHostWithHeadroom(t *testing.T) {
	// Host 0 is saturated (placing there means reclaiming first); host
	// 1 has free memory: reclaim-aware must place on host 1.
	c := newTestCluster(2, 8*units.GiB, faas.VirtioMem, "reclaim-aware")
	if !c.Nodes[0].Host.TryCommit(units.BytesToPages(8 * units.GiB)) {
		t.Fatal("setup commit failed")
	}
	fn := workload.ByName("BFS")
	c.Invoke(fn, nil)
	drainFor(c, 15*sim.Second)
	if c.Nodes[1].VM(fn.Name) == nil {
		t.Fatal("reclaim-aware placed on the saturated host despite an idle one")
	}
}

func TestReclaimAwarePrefersCheaperBackendUnderDeficit(t *testing.T) {
	// Two equally-full hosts whose backends differ: the policy must
	// pick the one whose unplug path frees memory faster (Squeezy).
	mkFull := func(kind faas.BackendKind) *Node {
		c := newTestCluster(1, 4*units.GiB, kind, "reclaim-aware")
		if !c.Nodes[0].Host.TryCommit(units.BytesToPages(4 * units.GiB)) {
			t.Fatal("setup commit failed")
		}
		return c.Nodes[0]
	}
	slow := mkFull(faas.VirtioMem)
	fast := mkFull(faas.Squeezy)
	fast.ID = 1
	p := NewPolicy("reclaim-aware", costmodel.Default())
	if got := p.Pick([]*Node{slow, fast}, workload.ByName("BFS")); got != fast {
		t.Fatalf("picked backend %v, want the Squeezy host", got.Backend)
	}
	// Headroom, by contrast, is indifferent between the two.
	if a, b := slow.HeadroomPages(), fast.HeadroomPages(); a != b {
		t.Fatalf("setup not symmetric: headroom %d vs %d", a, b)
	}
}

// fleetInvs synthesizes a Zipf fleet's merged invocation stream.
func fleetInvs(seed uint64, funcs int, duration sim.Duration, baseRPS, burstRPS float64) []Invocation {
	fleet := workload.Fleet(funcs)
	traces := trace.GenFleet(seed, trace.FleetConfig{
		Funcs: funcs, Duration: duration,
		TotalBaseRPS: baseRPS, TotalBurstRPS: burstRPS,
	})
	merged := trace.Merge(traces)
	invs := make([]Invocation, len(merged))
	for i, inv := range merged {
		invs[i] = Invocation{T: inv.T, Fn: fleet[inv.Func]}
	}
	return invs
}

// metricsTable flattens the run's outcome into a comparable string.
func metricsTable(c *ShardedCluster) string {
	m := c.Stats()
	return fmt.Sprintf("inv=%d cold=%d warm=%d drop=%d evict=%d p50=%.6f p99=%.6f memwait=%.6f eff=%.6f gibs=%.6f",
		m.Invocations, m.ColdStarts, m.WarmStarts,
		m.Dropped+m.AdmissionDrops, c.Evictions(),
		m.ColdLatMs.P50(), m.ColdLatMs.P99(), m.MemWaitMs.P99(),
		c.MemoryEfficiency(), c.CommittedGiBs())
}

// TestFleetDeterminism runs the same small fleet twice and requires
// identical aggregate metrics — the property every cluster experiment
// rests on.
func TestFleetDeterminism(t *testing.T) {
	run := func() (*Metrics, string) {
		c := newTestCluster(3, 16*units.GiB, faas.Squeezy, "reclaim-aware")
		play(c, fleetInvs(42, 8, 40*sim.Second, 4, 20), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(40 * sim.Second),
			DrainUntil: sim.Time(60 * sim.Second),
		})
		return c.Stats(), metricsTable(c)
	}
	a, at := run()
	b, bt := run()
	if a.Invocations == 0 || a.ColdStarts == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.Invocations != b.Invocations || at != bt {
		t.Fatalf("fleet run not deterministic:\n%s\n%s", at, bt)
	}
}

// Two identically seeded full fleet runs — separate schedulers, hosts,
// brokers, the works — must be indistinguishable: the same number of
// scheduler events fired and byte-identical metric tables. This pins
// down the determinism contract the pooled/bucketed scheduler, the
// interval page state, and the epoch engine must preserve.
func TestFullRunDeterministicFiredAndTables(t *testing.T) {
	run := func() (uint64, string) {
		cost := costmodel.Default()
		c := NewSharded(cost, Config{
			Hosts: 2, HostMemBytes: 24 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
		}, NewPolicy("reclaim-aware", cost))
		play(c, fleetInvs(7, 6, 30*sim.Second, 4, 24), PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(30 * sim.Second),
			DrainUntil: sim.Time(300 * sim.Second),
		})
		return c.Fired(), metricsTable(c)
	}
	fired1, table1 := run()
	fired2, table2 := run()
	if fired1 != fired2 {
		t.Fatalf("Fired() differs across identical runs: %d vs %d", fired1, fired2)
	}
	if table1 != table2 {
		t.Fatalf("tables differ across identical runs:\n%s\n%s", table1, table2)
	}
	if fired1 == 0 || table1 == "" {
		t.Fatal("degenerate run: nothing fired")
	}
}
