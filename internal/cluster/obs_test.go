package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The observability determinism suite: attaching a trace recorder must
// not perturb the simulation (tables byte-identical to an untraced
// run), and the recorded trace itself must be byte-identical at every
// shard and worker count — the TestChurnShardInvariance bar applied to
// the instrumentation.

// churnRunObs is churnRun with a trace attached; same fixture, same
// fingerprint, plus the recorded trace.
func churnRunObs(seed uint64, shards int, exec func([]func())) (uint64, string, *obs.Trace) {
	const hosts = 4
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := NewSharded(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
	}, NewPolicy("reclaim-aware", cost))
	c.Exec = exec
	tr := &obs.Trace{Experiment: "churn", Label: fmt.Sprintf("seed%d", seed)}
	c.AttachObs(tr)
	churn := trace.GenChurn(seed, trace.ChurnConfig{
		Duration: dur, Events: 6, Hosts: hosts,
	})
	play(c, fleetInvs(seed, 6, dur, 6, 30), PlayConfig{
		Shards:    shards,
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
		Events:     fleetEvents(churn),
	})
	return c.Fired(), churnTable(c), tr
}

// exportBytes renders a trace plus its counter registry to the exact
// bytes squeezyctl would write, the strongest equality we can ask for.
func exportBytes(t *testing.T, tr *obs.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, []*obs.Trace{tr}, nil); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetrics(&buf, []*obs.Trace{tr}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestObsLeavesTablesIdentical is the tentpole guarantee: the same
// churned fleet run with tracing attached produces a byte-identical
// fingerprint to the untraced run, at shard counts {1, 2, hosts} and
// serial/pooled/goroutine executors. Recording observes; it never
// schedules, randomizes, or feeds back.
func TestObsLeavesTablesIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		wantFired, wantTable := churnRun(seed, 1, nil) // tracing off
		for _, shards := range []int{1, 2, 0 /* = hosts */} {
			for _, e := range []struct {
				name string
				exec func([]func())
			}{{"serial", nil}, {"pool-2", poolExec(2)}, {"goroutines", goExec}} {
				gotFired, gotTable, tr := churnRunObs(seed, shards, e.exec)
				if gotFired != wantFired || gotTable != wantTable {
					t.Fatalf("seed %d shards=%d exec=%s: tracing perturbed the run:\n%d %s\n%d %s",
						seed, shards, e.name, gotFired, gotTable, wantFired, wantTable)
				}
				if tr.Empty() {
					t.Fatalf("seed %d: churned run recorded nothing; test is vacuous", seed)
				}
			}
		}
	}
}

// TestObsTraceShardInvariance: the exported trace (events, lanes,
// counters — the full byte stream) is identical at every shard and
// worker count. Host tracks are host-private and the fleet track is
// written only at serial boundaries, so parallelism cannot reorder
// anything; run under -race this also guards the merge.
func TestObsTraceShardInvariance(t *testing.T) {
	_, _, base := churnRunObs(1, 1, nil)
	want := exportBytes(t, base)
	for _, shards := range []int{2, 0} {
		for _, e := range []struct {
			name string
			exec func([]func())
		}{{"serial", nil}, {"pool-2", poolExec(2)}, {"pool-8", poolExec(8)}, {"goroutines", goExec}} {
			_, _, tr := churnRunObs(1, shards, e.exec)
			if got := exportBytes(t, tr); got != want {
				t.Fatalf("shards=%d exec=%s: exported trace diverges from serial export (%d vs %d bytes)",
					shards, e.name, len(got), len(want))
			}
		}
	}
}

// TestObsAutoscaleCounters: the pressure-driven autoscaler records its
// decisions — tables stay identical to the untraced run, and the
// counter registry reports the same scale-ups the metrics struct does.
func TestObsAutoscaleCounters(t *testing.T) {
	run := func(attach bool) (uint64, string, *obs.Trace, *ShardedCluster, int) {
		dur := 25 * sim.Second
		cost := costmodel.Default()
		c := NewSharded(cost, Config{
			Hosts: 2, HostMemBytes: 12 * units.GiB, Backend: faas.Squeezy,
			N: 4, KeepAlive: 20 * sim.Second,
		}, NewPolicy("reclaim-aware", cost))
		var tr *obs.Trace
		if attach {
			tr = &obs.Trace{Experiment: "autoscale"}
			c.AttachObs(tr)
		}
		invs := fleetInvs(9, 6, dur, 6, 30)
		play(c, invs, PlayConfig{
			TickEvery: sim.Second, TickUntil: sim.Time(dur),
			DrainUntil: sim.Time(10 * dur),
			Autoscale: &AutoscaleConfig{
				High: 0.6, Low: 0.3, MinHosts: 1, MaxHosts: 6,
				Cooldown: 5 * sim.Second, JoinDelay: 2 * sim.Second,
			},
		})
		return c.Fired(), churnTable(c), tr, c, len(invs)
	}
	wantFired, wantTable, _, _, _ := run(false)
	gotFired, gotTable, tr, c, invoked := run(true)
	if gotFired != wantFired || gotTable != wantTable {
		t.Fatalf("tracing perturbed the autoscaled run:\n%d %s\n%d %s",
			gotFired, gotTable, wantFired, wantTable)
	}
	counters := tr.Counters()
	if got, want := counters["autoscale/up"], int64(c.Metrics.HostJoins); got != want || want == 0 {
		t.Fatalf("autoscale/up counter = %d, metrics joins = %d (want equal, nonzero)", got, want)
	}
	if got, want := counters["invocations"], int64(invoked); got != want {
		t.Fatalf("invocations counter = %d, submitted = %d", got, want)
	}
}

// TestObsDetach: AttachObs(nil) restores the disabled path — node and
// runtime recorders cleared — so a detached fleet records nothing
// into a stale trace.
func TestObsDetach(t *testing.T) {
	c := newTestCluster(2, 0, faas.Squeezy, "round-robin")
	tr := &obs.Trace{Experiment: "x"}
	c.AttachObs(tr)
	c.AttachObs(nil)
	for _, n := range c.Nodes {
		if n.Obs != nil || n.RT.Obs != nil {
			t.Fatal("detach left a live recorder on a node")
		}
	}
	c.Invoke(workload.ByName("HTML"), nil)
	drainFor(c, 20*sim.Second)
	if !tr.Empty() {
		t.Fatal("detached trace still recorded events")
	}
}
