package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"squeezy/internal/cluster"
	"squeezy/internal/costmodel"
	"squeezy/internal/experiments"
	"squeezy/internal/faas"
	"squeezy/internal/fault"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/trace"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// rep is the outcome of one replay of a workload: its host-side
// measurements, the simulated output it produced, and the layer
// numbers a traced replay collects.
type rep struct {
	wall       time.Duration
	allocBytes uint64

	// Simulated output. rows are the table rows the replay produced
	// (fleet workloads), digest hashes the whole simulated output, and
	// invocations / simColdP99 / simSpeedup are its headline numbers.
	rows        [][]string
	fired       []uint64
	digest      string
	invocations int
	simColdP99  float64
	simSpeedup  float64

	// checkErr is the first failed check of the replay: a
	// conservation law of its fleets, or the run itself; nil when all
	// held.
	checkErr error

	// layer holds per-layer numbers; only traced replays fill it.
	layer map[string]float64
}

// workloadDef is one benchmark workload: a pinned simulator seed, a
// held-out seed for later claims, the replay itself, and its set-up
// path alone — everything the replay does before its first simulated
// event.
type workloadDef struct {
	name    string
	seed    uint64
	heldOut uint64
	run     func(seed uint64, tr *tracer) rep
	setup   func(seed uint64)
}

var workloads = []workloadDef{
	{name: "paper-reclaim", seed: 1, heldOut: 2, run: runPaperReclaim, setup: setupPaperReclaim},
	{name: "fleet-overcommit", seed: 1, heldOut: 2, run: runFleetOvercommit,
		setup: func(seed uint64) { setupFleet(seed, overcommitSpec(overcommitGiB[0])) }},
	{name: "diurnal-squeezy", seed: 1, heldOut: 2, run: runDiurnalSqueezy,
		setup: func(seed uint64) { setupFleet(seed, diurnalSpec()) }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// workers is the benchmark's parallelism: at most two worker
// goroutines, and never more than the machine has CPUs.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// paperExperiments are the single-VM experiments of the paper's
// evaluation plus the design ablations: everything the registry runs
// that is not a fleet.
var paperExperiments = []string{
	"abl-batching", "abl-partition", "abl-policy", "abl-zeroing",
	"fig1", "fig2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"pluglat",
}

// runPaperReclaim runs the paper experiments at the full protocol
// through the cell executor.
func runPaperReclaim(seed uint64, tr *tracer) rep {
	var r rep
	ms := allocStart()
	end := tr.span("experiments.RunWithCellStats")
	t0 := time.Now()
	reports, cells, err := experiments.RunWithCellStats(paperExperiments, experiments.Options{Seed: seed}, 1, workers())
	r.wall = time.Since(t0)
	end()
	r.allocBytes = allocSince(ms)
	if err != nil {
		r.checkErr = err
		return r
	}
	var cellSum, slowest, floor, wait time.Duration
	for _, c := range cells {
		cellSum += c.Wall
		slowest = max(slowest, c.Wall)
		floor = max(floor, experiments.CellFloor(c))
		wait += c.Wait
	}

	var buf bytes.Buffer
	if err := experiments.EncodeJSON(&buf, reports); err != nil {
		r.checkErr = fmt.Errorf("encode reports: %w", err)
		return r
	}
	r.digest = digestOf(buf.Bytes())
	for _, rp := range reports {
		if rp.Experiment == "fig5" {
			r.simSpeedup, r.checkErr = reclaimSpeedup(rp.Table)
		}
	}
	if tr != nil {
		tr.add("experiments.cell_wall_s", cellSum.Seconds())
		tr.add("experiments.slowest_cell_s", slowest.Seconds())
		tr.add("experiments.parallel_floor_s", floor.Seconds())
		tr.add("experiments.wait_s", wait.Seconds())
	}
	return r
}

// setupPaperReclaim enumerates the paper experiments' cell plans
// through the registry, the work the executor does before its first
// cell.
func setupPaperReclaim(seed uint64) {
	for _, name := range paperExperiments {
		e, ok := experiments.Get(name)
		if !ok {
			panic("perfbench: experiment not registered: " + name)
		}
		e.Plan(experiments.Options{Seed: seed})
	}
}

// reclaimSpeedup reads Figure 5's headline ratio from its table:
// virtio-mem's average reclaim latency over Squeezy's at the largest
// reclaim size.
func reclaimSpeedup(t *experiments.Table) (float64, error) {
	var size, vmem, sq float64
	for _, row := range t.Rows {
		if len(row) < 3 {
			continue
		}
		s, err1 := strconv.ParseFloat(row[0], 64)
		avg, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("fig5: unparsable row %v", row)
		}
		if s > size {
			size, vmem, sq = s, 0, 0
		}
		if s == size {
			switch row[1] {
			case "virtio-mem":
				vmem = avg
			case "squeezy":
				sq = avg
			}
		}
	}
	if vmem <= 0 || sq <= 0 {
		return 0, fmt.Errorf("fig5: no virtio-mem/squeezy pair at %.0f MiB", size)
	}
	return vmem / sq, nil
}

// fleetSpec is one composed fleet replay: the cluster shape, the
// trace, the fault plan and the replay cadence.
type fleetSpec struct {
	backend  faas.BackendKind
	hostMem  int64
	hosts    int
	funcs    int
	duration sim.Duration
	baseRPS  float64
	burstRPS float64
	tick     sim.Duration
	mods     []trace.DiurnalConfig
	sketch   bool
	faults   string // fault.Scenario name; "" runs fault-free
	parallel bool   // advance host shards on the worker pool
}

// fleetOut is a composed replay's merged metrics, read after the run.
type fleetOut struct {
	c        *cluster.ShardedCluster
	invoked  int
	cold     int
	warm     int
	p50, p99 float64
	p999     float64
	warmP99  float64
	memWait  float64
	dropped  int
	unserved int
}

// errFirstEvent stops a set-up-only replay at its first simulated
// event.
var errFirstEvent = errors.New("perfbench: first simulated event reached")

// setupFleet runs a fleet replay's set-up path — cluster, trace cursor
// and fault plan construction and PlayStream's preparation — and stops
// it when PlayStream first asks the stream for an invocation.
func setupFleet(seed uint64, fs fleetSpec) {
	defer func() {
		if r := recover(); r != errFirstEvent {
			panic(r)
		}
	}()
	playFleet(seed, fs, nil, true)
}

// playFleet builds a fleet from public constructors, replays the spec's
// trace through it and merges its metrics. With stop set, the replay
// panics with errFirstEvent at its first simulated event: PlayStream's
// first look at the stream.
func playFleet(seed uint64, fs fleetSpec, tr *tracer, stop bool) fleetOut {
	cost := costmodel.Default()
	cfg := cluster.Config{
		Hosts:        fs.hosts,
		HostMemBytes: fs.hostMem,
		Backend:      fs.backend,
		N:            8,
		KeepAlive:    45 * sim.Second,
	}
	if fs.sketch {
		cfg.Sketch = &stats.SketchConfig{K: stats.DefaultSketchK, Seed: seed}
	}
	var faults []fault.Event
	if fs.faults != "" {
		end := tr.span("fault.Scenario")
		evs, ok := fault.Scenario(fs.faults, fs.hosts, fs.duration)
		end()
		if !ok {
			panic("perfbench: unknown fault scenario " + fs.faults)
		}
		faults = evs
		// A fault plan splits the latency metrics at the trace midpoint,
		// as squeezyctl -faults does.
		cfg.PhaseBounds = []sim.Time{sim.Time(fs.duration / 2)}
	}
	end := tr.span("cluster.NewSharded")
	c := cluster.NewSharded(cost, cfg, cluster.NewPolicy("reclaim-aware", cost))
	end()
	if fs.parallel {
		c.Exec = execPool
	}
	end = tr.span("trace.NewFleetStream")
	src := &invStream{src: trace.NewFleetStream(seed, trace.FleetConfig{
		Funcs:         fs.funcs,
		Duration:      fs.duration,
		TotalBaseRPS:  fs.baseRPS,
		TotalBurstRPS: fs.burstRPS,
		Modulation:    fs.mods,
	}), timed: tr != nil, stop: stop}
	end()

	end = tr.span("cluster.PlayStream")
	t0 := time.Now()
	c.PlayStream(src, cluster.PlayConfig{
		TickEvery:  fs.tick,
		TickUntil:  sim.Time(fs.duration),
		DrainUntil: sim.Time(10 * fs.duration),
		Faults:     faults,
		FaultSeed:  seed,
	})
	play := time.Since(t0)
	end()

	end = tr.span("stats.summary")
	t1 := time.Now()
	m := c.Stats()
	out := fleetOut{
		c: c, invoked: m.Invocations, cold: m.ColdStarts, warm: m.WarmStarts,
		p50: m.ColdLatMs.P50(), p99: m.ColdLatMs.P99(), p999: m.ColdLatMs.Percentile(99.9),
		warmP99: m.WarmLatMs.P99(), memWait: m.MemWaitMs.P99(),
		dropped: m.Dropped + m.AdmissionDrops,
	}
	out.unserved = m.Invocations - (m.ColdStarts + m.WarmStarts + m.Dropped + m.AdmissionDrops + m.Failed + m.Shed)
	summary := time.Since(t1)
	end()

	if tr != nil {
		var wallMax, wallSum time.Duration
		for _, w := range c.ShardWalls() {
			wallMax = max(wallMax, w)
			wallSum += w
		}
		tr.add("cluster.replay_self_s", (play - src.nextT - src.poolT).Seconds())
		tr.add("cluster.shard_wall_max_s", wallMax.Seconds())
		tr.add("cluster.shard_wall_sum_s", wallSum.Seconds())
		tr.add("cluster.events_fired", float64(c.Fired()))
		tr.add("cluster.vms", float64(c.VMCount()))
		tr.add("trace.next_s", src.nextT.Seconds())
		tr.add("workload.pool_get_s", src.poolT.Seconds())
		tr.add("stats.summary_s", summary.Seconds())
	}
	return out
}

// overcommitRow formats a replay as a cluster-overcommit table row.
func overcommitRow(fs fleetSpec, o fleetOut) []string {
	return []string{
		fs.backend.String(), strconv.FormatInt(fs.hostMem/units.GiB, 10),
		strconv.Itoa(o.c.VMCount()), strconv.Itoa(o.cold), strconv.Itoa(o.warm),
		f1(o.p50), f1(o.p99), f1(o.memWait),
		strconv.Itoa(o.c.Evictions()), strconv.Itoa(o.dropped), strconv.Itoa(o.unserved),
		f2(o.c.MemoryEfficiency()), f1(o.c.CommittedGiBs()),
	}
}

// diurnalRow formats a replay as a cluster-diurnal table row.
func diurnalRow(fs fleetSpec, days float64, o fleetOut) []string {
	return []string{
		fs.backend.String(), fmt.Sprintf("%.2f", days),
		strconv.Itoa(o.invoked), strconv.Itoa(o.cold), strconv.Itoa(o.warm),
		f1(o.p50), f1(o.p99), f1(o.p999), f1(o.warmP99), f1(o.memWait),
		strconv.Itoa(o.dropped), strconv.Itoa(o.unserved),
		f2(o.c.MemoryEfficiency()), f1(o.c.CommittedGiBs()),
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// overcommitGiB are the per-host memory steps of the virtio-mem column
// of cluster-overcommit; coldP99GiB is the step whose cold-start P99
// the workload reports.
var overcommitGiB = []int64{32, 28, 24}

const coldP99GiB = 28

func overcommitSpec(gib int64) fleetSpec {
	return fleetSpec{
		backend: faas.VirtioMem, hostMem: gib * units.GiB, hosts: 4,
		funcs: 40, duration: 180 * sim.Second, baseRPS: 16, burstRPS: 80,
		tick: sim.Second, parallel: true,
	}
}

// runFleetOvercommit replays the virtio-mem column of
// cluster-overcommit: a 4-host reclaim-aware Zipf fleet of 40
// functions over 180 simulated seconds at 32, 28 and 24 GiB per host,
// with exact statistics, 1 s ticks, and host shards advanced on the
// worker pool.
func runFleetOvercommit(seed uint64, tr *tracer) rep {
	var r rep
	for _, gib := range overcommitGiB {
		fs := overcommitSpec(gib)
		ms := allocStart()
		t0 := time.Now()
		o := playFleet(seed, fs, tr, false)
		r.wall += time.Since(t0)
		r.allocBytes += allocSince(ms)
		// Formatting and conservation checks stay outside the timed
		// region.
		r.rows = append(r.rows, overcommitRow(fs, o))
		r.fired = append(r.fired, o.c.Fired())
		r.invocations += o.invoked
		if gib == coldP99GiB {
			r.simColdP99 = o.p99
		}
		if err := checkFleet(o.c); err != nil && r.checkErr == nil {
			r.checkErr = fmt.Errorf("%d GiB cell: %w", gib, err)
		}
	}
	r.digest = fleetDigest(r)
	return r
}

// diurnalDays is the simulated length of the diurnal-squeezy replay.
const diurnalDays = 0.5

// runDiurnalSqueezy replays the cluster-diurnal Squeezy cell at half a
// simulated day with the straggler fault window: 4 x 32 GiB hosts, 48
// functions under a 24 h and a 7 d rate modulation, reservoir sketches
// and 30 s ticks, host shards advanced serially.
func runDiurnalSqueezy(seed uint64, tr *tracer) rep {
	var r rep
	fs := diurnalSpec()
	ms := allocStart()
	t0 := time.Now()
	o := playFleet(seed, fs, tr, false)
	r.wall = time.Since(t0)
	r.allocBytes = allocSince(ms)
	r.rows = [][]string{diurnalRow(fs, diurnalDays, o)}
	r.fired = []uint64{o.c.Fired()}
	r.invocations = o.invoked
	r.simColdP99 = o.p99
	r.checkErr = checkFleet(o.c)
	r.digest = fleetDigest(r)
	return r
}

func diurnalSpec() fleetSpec {
	return fleetSpec{
		backend: faas.Squeezy, hostMem: 32 * units.GiB, hosts: 4,
		funcs: 48, duration: sim.Duration(diurnalDays * 24 * float64(sim.Hour)),
		baseRPS: 4, burstRPS: 12, tick: 30 * sim.Second,
		mods: []trace.DiurnalConfig{
			{Period: 24 * sim.Hour, Amplitude: 0.6},
			{Period: 7 * 24 * sim.Hour, Amplitude: 0.2, Phase: 1.0},
		},
		sketch: true, faults: "straggler",
	}
}

// invStream adapts a merged trace cursor to the dispatcher's invocation
// stream, resolving function ranks through a lazy fleet pool and
// buffering exactly one invocation for Peek. When timed, it times the
// trace cursor and the pool separately — per-invocation clock reads
// that untraced replays must not pay. With stop set, its first Peek
// panics with errFirstEvent.
type invStream struct {
	src  trace.Stream
	pool workload.FleetPool
	next cluster.Invocation
	have bool
	stop bool

	timed        bool
	nextT, poolT time.Duration
}

func (s *invStream) fill() {
	if s.have {
		return
	}
	if !s.timed {
		if it, ok := s.src.Next(); ok {
			s.next = cluster.Invocation{T: it.T, Fn: s.pool.Get(it.Func)}
			s.have = true
		}
		return
	}
	t0 := time.Now()
	it, ok := s.src.Next()
	t1 := time.Now()
	s.nextT += t1.Sub(t0)
	if ok {
		s.next = cluster.Invocation{T: it.T, Fn: s.pool.Get(it.Func)}
		s.poolT += time.Since(t1)
		s.have = true
	}
}

func (s *invStream) Peek() (sim.Time, bool) {
	if s.stop {
		panic(errFirstEvent)
	}
	s.fill()
	return s.next.T, s.have
}

func (s *invStream) Next() (cluster.Invocation, bool) {
	s.fill()
	if !s.have {
		return cluster.Invocation{}, false
	}
	s.have = false
	return s.next, true
}

// execPool runs one barrier round of shard-advance tasks on the
// benchmark's workers: the caller and workers()-1 helper goroutines
// claim task indices from a shared counter, and the call returns once
// every claimed task has finished. The caller never waits for a helper
// that has not claimed a task yet: a helper that starts after the
// tasks are gone finds none and exits, so a slow wake-up costs the
// round nothing.
func execPool(tasks []func()) {
	n := int64(len(tasks))
	var next, done atomic.Int64
	finished := make(chan struct{})
	run := func() {
		for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
			tasks[i]()
			if done.Add(1) == n {
				close(finished)
			}
		}
	}
	for w := 1; w < min(workers(), len(tasks)); w++ {
		go run()
	}
	run()
	<-finished
}

// fleetDigest hashes a fleet replay's simulated output: its table rows
// and the number of events every host scheduler fired.
func fleetDigest(r rep) string {
	b, _ := json.Marshal(struct { // strings and integers always marshal
		Rows  [][]string
		Fired []uint64
	}{r.rows, r.fired})
	return digestOf(b)
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func allocStart() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func allocSince(start uint64) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - start
}
