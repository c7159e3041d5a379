package cluster

import (
	"strings"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The boundary-rule suite pins the three rules every dispatcher-timed
// event follows (package comment, "Boundary queue") through the public
// PlayStream loop: late and same-boundary events fire in a second pass,
// due events fire class-major, and moot resilience events create no
// boundary.

// fleetInstants returns the fleet track's instant and gauge events, in
// record order, whose names start with any of the prefixes.
func fleetInstants(tr *obs.Trace, prefixes ...string) []obs.Event {
	var out []obs.Event
	for _, ev := range tr.Fleet().Events() {
		for _, p := range prefixes {
			if strings.HasPrefix(ev.Name, p) {
				out = append(out, ev)
				break
			}
		}
	}
	return out
}

// checkOrder fails unless events carry exactly the wanted name prefixes,
// in order, all at simulated time at.
func checkOrder(t *testing.T, events []obs.Event, at sim.Time, want ...string) {
	t.Helper()
	var got []string
	for _, ev := range events {
		got = append(got, ev.Name)
	}
	if len(events) != len(want) {
		t.Fatalf("fleet events %q, want prefixes %q", got, want)
	}
	for i, ev := range events {
		if !strings.HasPrefix(ev.Name, want[i]) || ev.Start != at {
			t.Fatalf("fleet event %d = %q at %v, want %q at %v (all: %q)",
				i, ev.Name, ev.Start, want[i], at, got)
		}
	}
}

// TestBoundaryLateEventsSecondPass: a zero-length fault window opened
// at boundary t queues its close for t, and an autoscaler with no
// provisioning delay queues its join for t. Neither is in t's due set,
// so both fire in a second pass at t — after t's invocation and memory
// sample — with the join (fleet class) before the close.
func TestBoundaryLateEventsSecondPass(t *testing.T) {
	cost := costmodel.Default()
	c := NewSharded(cost, Config{
		Hosts: 2, HostMemBytes: 16 * units.GiB, Backend: faas.Squeezy, N: 4,
		KeepAlive: 30 * sim.Second,
	}, NewPolicy("round-robin", cost))
	tr := &obs.Trace{}
	c.AttachObs(tr)
	play(c, []Invocation{{T: 0, Fn: workload.ByName("HTML")}}, PlayConfig{
		TickEvery: sim.Second, TickUntil: 0,
		DrainUntil: sim.Time(30 * sim.Second),
		Autoscale:  &AutoscaleConfig{High: 0, Low: -1, MaxHosts: 3},
		Faults:     []fault.Event{{T: 0, Kind: fault.ColdFail, Host: -1}},
	})
	checkOrder(t, fleetInstants(tr, "fault-", "dispatch/", "mem/committed", "autoscale/up", "host-join"), 0,
		"fault-open", "dispatch/", "mem/committed", "autoscale/up", "host-join", "fault-close")
	if c.Metrics.HostJoins != 1 {
		t.Fatalf("HostJoins = %d, want 1", c.Metrics.HostJoins)
	}
}

// TestBoundaryDueEventsClassMajor: a fleet event at 2 s and a fault
// window opening at 1 s, both queued against a cluster already at 10 s,
// fire at 10 s class-major: the fleet event first although its time is
// later, so the window opens on the surviving hosts only.
func TestBoundaryDueEventsClassMajor(t *testing.T) {
	c := newTestCluster(3, 0, faas.Squeezy, "round-robin")
	tr := &obs.Trace{}
	c.AttachObs(tr)
	at := sim.Time(10 * sim.Second)
	c.AdvanceTo(at)
	play(c, nil, PlayConfig{
		DrainUntil: sim.Time(20 * sim.Second),
		Events:     []FleetEvent{{T: sim.Time(2 * sim.Second), Kind: HostFail, Host: 2}},
		Faults: []fault.Event{
			{T: sim.Time(1 * sim.Second), Dur: sim.Second, Kind: fault.ColdFail, Host: -1},
		},
	})
	events := fleetInstants(tr, "host-fail", "fault-")
	checkOrder(t, events, at, "host-fail", "fault-open", "fault-close")
	for _, a := range events[1].Args {
		if a.Key == "targets" && a.Num != 2 {
			t.Fatalf("fault opened on %v hosts, want the 2 survivors", a.Num)
		}
	}
}

// boundaryLog is an invocation stream that records the dispatcher clock
// at every Peek. PlayStream peeks once per boundary it picks, so the
// recorded clocks are exactly the boundaries it fired.
type boundaryLog struct {
	sliceStream
	c    *ShardedCluster
	seen map[sim.Time]bool
}

func (b *boundaryLog) Peek() (sim.Time, bool) {
	b.seen[b.c.Now()] = true
	return b.sliceStream.Peek()
}

// TestBoundaryMootTimeoutNoBoundary: the first flight's timeout (10 s)
// reaches the queue head after the flight resolved at the 5 s boundary,
// so it creates no boundary. The second flight is still unresolved
// when its timeout (15 s) reaches the head — its attempt settled but no
// boundary has resolved it — so that timeout does create one.
func TestBoundaryMootTimeoutNoBoundary(t *testing.T) {
	cost := costmodel.Default()
	c := NewSharded(cost, Config{
		Hosts: 2, Backend: faas.Squeezy, N: 4, KeepAlive: 30 * sim.Second,
		Resilience: &ResilienceConfig{Timeout: 10 * sim.Second},
	}, NewPolicy("round-robin", cost))
	fn := workload.ByName("HTML")
	src := &boundaryLog{
		sliceStream: sliceStream{{T: 0, Fn: fn}, {T: sim.Time(5 * sim.Second), Fn: fn}},
		c:           c, seen: map[sim.Time]bool{},
	}
	c.PlayStream(src, PlayConfig{DrainUntil: sim.Time(60 * sim.Second)})
	if src.seen[sim.Time(10*sim.Second)] {
		t.Fatal("the resolved flight's timeout created a boundary at 10 s")
	}
	if !src.seen[sim.Time(5*sim.Second)] || !src.seen[sim.Time(15*sim.Second)] {
		t.Fatalf("boundaries %v, want 5 s and 15 s", src.seen)
	}
	if m := c.Stats(); m.ColdStarts+m.WarmStarts != 2 || c.Metrics.TimedOut != 0 {
		t.Fatalf("completions=%d timeouts=%d, want 2 and 0", m.ColdStarts+m.WarmStarts, c.Metrics.TimedOut)
	}
}
