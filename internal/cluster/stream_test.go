package cluster

import (
	"fmt"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// The streaming determinism suite: the epoch loop fed by a live trace
// cursor — diurnally modulated, with reservoir sketches collecting the
// latency tails — must remain byte-identical across shard counts,
// worker counts, and streamed-vs-materialized replay. This extends the
// PR 5–9 invariance harness to the PR 10 streaming path.

// fnStream adapts a trace cursor to the dispatcher's invocation
// stream for the tests, buffering one invocation for Peek.
type fnStream struct {
	src   trace.Stream
	fleet []*workload.Function
	next  Invocation
	have  bool
}

func (s *fnStream) fill() {
	if s.have {
		return
	}
	if it, ok := s.src.Next(); ok {
		s.next = Invocation{T: it.T, Fn: s.fleet[it.Func]}
		s.have = true
	}
}

func (s *fnStream) Peek() (sim.Time, bool) {
	s.fill()
	return s.next.T, s.have
}

func (s *fnStream) Next() (Invocation, bool) {
	s.fill()
	if !s.have {
		return Invocation{}, false
	}
	s.have = false
	return s.next, true
}

// sliceStream replays a materialized, time-sorted invocation slice.
type sliceStream []Invocation

func (s *sliceStream) Peek() (sim.Time, bool) {
	if len(*s) == 0 {
		return 0, false
	}
	return (*s)[0].T, true
}

func (s *sliceStream) Next() (Invocation, bool) {
	if len(*s) == 0 {
		return Invocation{}, false
	}
	inv := (*s)[0]
	*s = (*s)[1:]
	return inv, true
}

// play replays a time-sorted invocation slice through PlayStream.
func play(c *ShardedCluster, invs []Invocation, pc PlayConfig) {
	s := sliceStream(invs)
	c.PlayStream(&s, pc)
}

// streamRun plays a diurnally modulated fleet trace with reservoir
// sketches on, either streamed straight from the generator cursors or
// fully materialized first, and returns the run's fingerprint — the
// churn table extended with the sketches' order-insensitive content
// fingerprints and a deep-tail percentile only sketches serve.
func streamRun(seed uint64, shards int, exec func([]func()), materialize bool) (uint64, string) {
	const hosts, funcs = 4, 6
	dur := 25 * sim.Second
	cost := costmodel.Default()
	c := NewSharded(cost, Config{
		Hosts: hosts, HostMemBytes: 18 * units.GiB, Backend: faas.Squeezy,
		N: 4, KeepAlive: 20 * sim.Second,
		PhaseBounds: []sim.Time{sim.Time(dur / 2)},
		Sketch:      &stats.SketchConfig{K: 256, Seed: seed},
	}, NewPolicy("reclaim-aware", cost))
	c.Exec = exec
	src := &fnStream{
		fleet: workload.Fleet(funcs),
		src: trace.NewFleetStream(seed, trace.FleetConfig{
			Funcs: funcs, Duration: dur,
			TotalBaseRPS: 6, TotalBurstRPS: 30,
			Modulation: []trace.DiurnalConfig{
				{Period: dur / 2, Amplitude: 0.5},
				{Period: dur, Amplitude: 0.2, Phase: 1.0},
			},
		}),
	}
	pc := PlayConfig{
		Shards:    shards,
		TickEvery: sim.Second, TickUntil: sim.Time(dur),
		DrainUntil: sim.Time(10 * dur),
	}
	if materialize {
		var invs []Invocation
		for {
			inv, ok := src.Next()
			if !ok {
				break
			}
			invs = append(invs, inv)
		}
		play(c, invs, pc)
	} else {
		c.PlayStream(src, pc)
	}
	m := c.Stats()
	table := fmt.Sprintf("%s skfp=%x/%x/%x p999=%.6f/%.6f",
		churnTable(c),
		m.ColdLatMs.SketchFingerprint(), m.WarmLatMs.SketchFingerprint(), m.MemWaitMs.SketchFingerprint(),
		m.ColdLatMs.Percentile(99.9), m.WarmLatMs.Percentile(99.9))
	if !m.ColdLatMs.Sketched() || m.ColdLatMs.N() == 0 {
		panic("streamRun: sketches not exercised; the invariance test would be vacuous")
	}
	return c.Fired(), table
}

// TestStreamShardInvariance is the streaming headline property: a
// diurnally modulated trace streamed straight from its generator
// cursors, with sketched latency samples, fingerprints byte-identically
// at shard counts {1, 2, hosts} and worker counts {1, 2, 8}, serial
// and parallel — and identically again when the same stream is first
// materialized into a slice and replayed.
func TestStreamShardInvariance(t *testing.T) {
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
		wantFired, wantTable := streamRun(seed, 1, nil, false)
		if wantFired == 0 {
			t.Fatalf("seed %d: degenerate run", seed)
		}
		for _, shards := range []int{1, 2, 0 /* = hosts */} {
			for _, e := range execs {
				gotFired, gotTable := streamRun(seed, shards, e.exec, false)
				if gotFired != wantFired || gotTable != wantTable {
					t.Fatalf("seed %d shards=%d exec=%s diverges from serial:\n%d %s\n%d %s",
						seed, shards, e.name, gotFired, gotTable, wantFired, wantTable)
				}
			}
		}
		gotFired, gotTable := streamRun(seed, 0, poolExec(2), true)
		if gotFired != wantFired || gotTable != wantTable {
			t.Fatalf("seed %d: materialized replay diverges from streamed:\n%d %s\n%d %s",
				seed, gotFired, gotTable, wantFired, wantTable)
		}
	}
}
