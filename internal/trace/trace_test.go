package trace

import (
	"testing"

	"squeezy/internal/sim"
)

func TestGenBurstyDeterministic(t *testing.T) {
	cfg := BurstyConfig{
		Duration: 5 * sim.Minute, BaseRPS: 0.5, BurstRPS: 20,
		BurstLen: 10 * sim.Second, BurstGap: 30 * sim.Second,
	}
	a := GenBursty(42, cfg)
	b := GenBursty(42, cfg)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
	c := GenBursty(43, cfg)
	if c.Len() == a.Len() {
		same := true
		for i := range a.Times {
			if a.Times[i] != c.Times[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds yield identical traces")
		}
	}
}

func TestGenBurstySortedAndBounded(t *testing.T) {
	tr := GenBursty(7, BurstyConfig{
		Duration: 10 * sim.Minute, BaseRPS: 1, BurstRPS: 50,
		BurstLen: 20 * sim.Second, BurstGap: 60 * sim.Second,
	})
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	end := sim.Time(10 * sim.Minute)
	for i, ts := range tr.Times {
		if ts < 0 || ts >= end {
			t.Fatalf("invocation %d at %v outside [0,%v)", i, ts, end)
		}
		if i > 0 && ts < tr.Times[i-1] {
			t.Fatalf("trace not sorted at %d", i)
		}
	}
}

func TestBurstinessShape(t *testing.T) {
	// Bursty traces must have per-10s rate spikes well above the base.
	tr := GenBursty(11, BurstyConfig{
		Duration: 20 * sim.Minute, BaseRPS: 0.2, BurstRPS: 30,
		BurstLen: 15 * sim.Second, BurstGap: 60 * sim.Second,
	})
	buckets := make([]int, 20*6)
	for _, ts := range tr.Times {
		buckets[int(sim.Duration(ts)/(10*sim.Second))]++
	}
	maxB, quiet := 0, 0
	for _, b := range buckets {
		if b > maxB {
			maxB = b
		}
		if b <= 4 {
			quiet++
		}
	}
	if maxB < 50 {
		t.Fatalf("no burst found: max 10s bucket = %d", maxB)
	}
	if quiet < len(buckets)/4 {
		t.Fatalf("no quiet periods: %d of %d buckets quiet", quiet, len(buckets))
	}
}

func TestMerge(t *testing.T) {
	a := &Trace{Times: []sim.Time{10, 30}}
	b := &Trace{Times: []sim.Time{20}}
	m := Merge([]*Trace{a, b})
	if len(m) != 3 {
		t.Fatalf("len = %d", len(m))
	}
	if m[0].T != 10 || m[0].Func != 0 || m[1].T != 20 || m[1].Func != 1 || m[2].T != 30 {
		t.Fatalf("merge wrong: %+v", m)
	}
}

func TestInstanceChurnReuse(t *testing.T) {
	// Two invocations 1s apart with 100ms exec: the second reuses the
	// idle instance.
	tr := &Trace{Times: []sim.Time{0, sim.Time(sim.Second)}}
	pts := InstanceChurn(tr, 100*sim.Millisecond, 5*sim.Minute, sim.Duration(sim.Minute))
	creations := 0
	for _, p := range pts {
		creations += p.Creations
	}
	if creations != 1 {
		t.Fatalf("creations = %d, want 1 (reuse)", creations)
	}
}

func TestInstanceChurnConcurrent(t *testing.T) {
	// Two simultaneous invocations need two instances.
	tr := &Trace{Times: []sim.Time{0, 0}}
	pts := InstanceChurn(tr, sim.Second, 5*sim.Minute, sim.Duration(sim.Minute))
	if pts[0].Creations != 2 {
		t.Fatalf("creations = %d, want 2", pts[0].Creations)
	}
}

func TestInstanceChurnEviction(t *testing.T) {
	tr := &Trace{Times: []sim.Time{0}}
	pts := InstanceChurn(tr, sim.Second, sim.Duration(2*sim.Minute), sim.Duration(10*sim.Minute))
	evictions, evMinute := 0, -1
	for _, p := range pts {
		if p.Evictions > 0 {
			evictions += p.Evictions
			evMinute = p.Minute
		}
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
	// Idle from t=1s, keep-alive 2min: eviction lands in minute 2.
	if evMinute != 2 {
		t.Fatalf("eviction minute = %d, want 2", evMinute)
	}
}

func TestCreationsAndEvictionsBalance(t *testing.T) {
	tr := GenBursty(3, BurstyConfig{
		Duration: 10 * sim.Minute, BaseRPS: 0.5, BurstRPS: 25,
		BurstLen: 10 * sim.Second, BurstGap: 45 * sim.Second,
	})
	pts := InstanceChurn(tr, 500*sim.Millisecond, sim.Duration(2*sim.Minute), sim.Duration(10*sim.Minute))
	var created, evicted int
	for _, p := range pts {
		created += p.Creations
		evicted += p.Evictions
	}
	if created == 0 {
		t.Fatal("no creations")
	}
	// Evictions within the window never exceed creations, and the
	// early-burst instances (idle > keep-alive before the window ends)
	// must show up as evictions.
	if evicted == 0 || evicted > created {
		t.Fatalf("created %d, evicted %d", created, evicted)
	}
}

// topTen builds the ten top-ten ranks, one TopTenTrace each.
func topTen(seed uint64, duration sim.Duration) []*Trace {
	traces := make([]*Trace, 10)
	for i := range traces {
		traces[i] = TopTenTrace(seed, duration, i)
	}
	return traces
}

func TestTopTenScale(t *testing.T) {
	traces := topTen(1, sim.Duration(2*sim.Minute))
	if len(traces) != 10 {
		t.Fatalf("traces = %d", len(traces))
	}
	// Rank 1 must be busier than rank 10.
	if traces[0].Len() <= traces[9].Len() {
		t.Fatalf("popularity not decaying: rank1=%d rank10=%d", traces[0].Len(), traces[9].Len())
	}
}

func TestPeakConcurrency(t *testing.T) {
	tr := &Trace{Times: []sim.Time{0, 10, 20, 1000}}
	// exec 100ns: first three overlap.
	if got := PeakConcurrency(tr, 100); got != 3 {
		t.Fatalf("peak = %d, want 3", got)
	}
	if got := PeakConcurrency(tr, 5); got != 1 {
		t.Fatalf("peak = %d, want 1", got)
	}
}

func TestGenFleetZipfShape(t *testing.T) {
	cfg := FleetConfig{
		Funcs: 50, Duration: 5 * sim.Minute,
		TotalBaseRPS: 10, TotalBurstRPS: 60,
	}
	traces := GenFleet(3, cfg)
	if len(traces) != 50 {
		t.Fatalf("fleet size = %d", len(traces))
	}
	// Popularity must decay: the head rank dominates the mid-tail.
	if traces[0].Len() <= traces[25].Len() {
		t.Fatalf("rank 0 (%d) not hotter than rank 25 (%d)", traces[0].Len(), traces[25].Len())
	}
	// The tail still gets some traffic over 5 minutes.
	total := 0
	for _, tr := range traces {
		total += tr.Len()
	}
	if total == 0 {
		t.Fatal("empty fleet trace")
	}
	// Determinism: same seed, same fleet.
	again := GenFleet(3, cfg)
	for i := range traces {
		if len(traces[i].Times) != len(again[i].Times) {
			t.Fatalf("func %d not deterministic", i)
		}
	}
	// Seed sensitivity.
	other := GenFleet(4, cfg)
	same := true
	for i := range traces {
		if len(traces[i].Times) != len(other[i].Times) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fleets")
	}
}

func TestGenFleetEmptyAndDefaults(t *testing.T) {
	if GenFleet(1, FleetConfig{}) != nil {
		t.Fatal("zero functions must yield nil")
	}
	// Defaults (ZipfS, burst shape) must not panic and must honor the
	// aggregate rate roughly.
	traces := GenFleet(1, FleetConfig{Funcs: 4, Duration: sim.Minute, TotalBaseRPS: 12, TotalBurstRPS: 12})
	total := 0
	for _, tr := range traces {
		total += tr.Len()
	}
	// ~12 rps for 60 s = ~720 invocations; allow wide tolerance.
	if total < 360 || total > 1440 {
		t.Fatalf("aggregate invocations = %d, want ~720", total)
	}
}

// TestGenChurn pins the properties the churn fuzzer relies on: the
// schedule is a pure function of its seed, sorted by time, strictly
// inside the trace window, and mixes targeted hosts (including
// deliberately dangling IDs) with "busiest" (-1) wildcards.
func TestGenChurn(t *testing.T) {
	cfg := ChurnConfig{Duration: 30 * sim.Second, Events: 40, Hosts: 4}
	a := GenChurn(7, cfg)
	b := GenChurn(7, cfg)
	if len(a) != cfg.Events || len(b) != cfg.Events {
		t.Fatalf("lengths %d/%d, want %d", len(a), len(b), cfg.Events)
	}
	targeted, wildcard := 0, 0
	for i, ev := range a {
		if ev != b[i] {
			t.Fatalf("event %d differs across same-seed runs: %+v vs %+v", i, ev, b[i])
		}
		if i > 0 && ev.T < a[i-1].T {
			t.Fatalf("events not sorted: %d then %d", a[i-1].T, ev.T)
		}
		if ev.T <= 0 || ev.T >= sim.Time(cfg.Duration) {
			t.Fatalf("event %d at %d outside (0, %d)", i, ev.T, cfg.Duration)
		}
		if ev.Kind != ChurnJoin && ev.Kind != ChurnFail && ev.Kind != ChurnDrain {
			t.Fatalf("event %d has kind %d", i, ev.Kind)
		}
		if ev.Host == -1 {
			wildcard++
		} else if ev.Host >= 0 && ev.Host < 2*cfg.Hosts {
			targeted++
		} else {
			t.Fatalf("event %d targets host %d outside [0, %d)", i, ev.Host, 2*cfg.Hosts)
		}
	}
	if targeted == 0 || wildcard == 0 {
		t.Fatalf("no mix: %d targeted, %d wildcard", targeted, wildcard)
	}
	if c := GenChurn(8, cfg); len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical churn schedules")
		}
	}
}

// TestGenChurnRacks: with Racks unset the schedule is byte-identical
// to a build without the rack kind (host kinds only, same draws); with
// racks declared, rack failures appear with rack-index targets
// (possibly dangling, for no-op coverage).
func TestGenChurnRacks(t *testing.T) {
	cfg := ChurnConfig{Duration: 30 * sim.Second, Events: 40, Hosts: 4}
	for _, ev := range GenChurn(7, cfg) {
		if ev.Kind == ChurnRackFail {
			t.Fatal("flat schedule drew a rack failure")
		}
	}
	cfg.Racks = 2
	rackFails := 0
	for _, ev := range GenChurn(7, cfg) {
		if ev.Kind != ChurnRackFail {
			continue
		}
		rackFails++
		if ev.Host < 0 || ev.Host >= 2*cfg.Racks {
			t.Fatalf("rack failure targets %d outside [0, %d)", ev.Host, 2*cfg.Racks)
		}
	}
	if rackFails == 0 {
		t.Fatal("racked schedule drew no rack failures in 40 events")
	}
}
