package main

import (
	"math/rand/v2"
	"slices"
	"time"

	"squeezy/internal/balloon"
	"squeezy/internal/buddy"
	"squeezy/internal/core"
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
	"squeezy/internal/virtiomem"
	"squeezy/internal/vmm"
	"squeezy/internal/workload"
)

// The layer probes time single public calls of the layers the
// workloads spend their CPU in, on inputs sized like one fleet VM: a
// concurrency factor of 8 instances of 768 MiB (the Table 1 functions'
// memory limit). Each probe reports a per-unit figure, the median of
// probeRounds rounds on fresh state; its random inputs derive from the
// benchmark's --seed.

const (
	probeRounds   = 5
	probeInstance = 768 * units.MiB
	probeN        = 8
	// probeMovable is a fleet VM's movable zone: N instances.
	probeMovable = probeN * probeInstance
)

// runProbes runs every layer probe and returns its per-unit figures by
// metric name.
func runProbes(seed uint64) map[string]metric {
	out := map[string]metric{}
	rng := rand.New(rand.NewPCG(seed, 0x9e0be))
	probes := []struct {
		name, unit string
		run        func(*rand.Rand) float64
	}{
		{"guestos.scramble_ns_per_page", "ns/page", probeScramble},
		{"guestos.touch_anon_ns_per_page", "ns/page", probeTouchAnon},
		{"guestos.exit_ns_per_page", "ns/page", probeExit},
		{"buddy.isolate_ns_per_page", "ns/page", probeIsolate},
		{"buddy.free_ns_per_page", "ns/page", probeBuddyFree},
		{"virtiomem.unplug_block_ms", "ms", probeVirtioUnplug},
		{"core.unplug_partition_ms", "ms", probeCoreUnplug},
		{"balloon.inflate_ns_per_page", "ns/page", probeInflate},
		{"sim.event_ns", "ns", probeSimEvent},
		{"stats.add_ns.exact", "ns", func(r *rand.Rand) float64 { return probeStatsAdd(r, false) }},
		{"stats.add_ns.sketch", "ns", func(r *rand.Rand) float64 { return probeStatsAdd(r, true) }},
		{"stats.merge_ns.sketch", "ns", probeSketchMerge},
	}
	for _, p := range probes {
		out[p.name] = metric{medianOfRounds(func() float64 { return p.run(rng) }), p.unit}
	}
	for _, kind := range []faas.BackendKind{faas.Static, faas.VirtioMem, faas.Harvest, faas.Squeezy} {
		out["faas.cold_start_ms."+kind.String()] = metric{medianOfRounds(func() float64 { return probeColdStart(kind) }), "ms"}
	}
	return out
}

func medianOfRounds(f func() float64) float64 {
	xs := make([]float64, probeRounds)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func nsPer(d time.Duration, units int64) float64 { return float64(d.Nanoseconds()) / float64(units) }

func msPer(d time.Duration, units int64) float64 {
	return float64(d) / float64(time.Millisecond) / float64(units)
}

// guestKernel boots a guest with the given movable span, all online,
// on an unbounded host.
func guestKernel(movable int64) (*guestos.Kernel, *sim.Scheduler) {
	s := sim.NewScheduler()
	vm := vmm.New("probe", s, costmodel.Default(), hostmem.New(0), 4)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes:           units.BlockSize,
		MovableBytes:        movable,
		KernelResidentBytes: 8 * units.MiB,
	})
	k.OnlineAllMovable()
	return k, s
}

// halfFull spawns one process per instance slot and has each touch
// half an instance, interleaved, so the movable zone is half occupied.
func halfFull(k *guestos.Kernel) []*guestos.Process {
	procs := make([]*guestos.Process, probeN)
	for i := range procs {
		procs[i] = k.Spawn("inst")
	}
	for round := 0; round < 8; round++ {
		for _, p := range procs {
			k.TouchAnon(p, probeInstance/16, guestos.HugeOrder)
		}
	}
	return procs
}

// probeScramble times ScrambleFreeLists on a half-occupied fleet-sized
// movable zone, per free page scrambled: the work every virtio-mem
// plug pays.
func probeScramble(rng *rand.Rand) float64 {
	k, _ := guestKernel(probeMovable)
	halfFull(k)
	free := k.Movable.NrFree()
	t0 := time.Now()
	k.ScrambleFreeLists(k.Movable, rng)
	return nsPer(time.Since(t0), free)
}

// probeTouchAnon times TouchAnon filling one instance with huge pages.
func probeTouchAnon(*rand.Rand) float64 {
	k, _ := guestKernel(probeMovable)
	p := k.Spawn("inst")
	t0 := time.Now()
	k.TouchAnon(p, probeInstance, guestos.HugeOrder)
	return nsPer(time.Since(t0), units.BytesToPages(probeInstance))
}

// probeExit times Exit of a process holding one instance of anonymous
// memory, per page freed.
func probeExit(*rand.Rand) float64 {
	k, _ := guestKernel(probeMovable)
	procs := halfFull(k)
	t0 := time.Now()
	freed := k.Exit(procs[0])
	return nsPer(time.Since(t0), freed)
}

// fragmented returns a buddy allocator over the probe's movable span
// with every page allocated singly and a random half freed again, and
// the time those frees took.
func fragmented(rng *rand.Rand) (*buddy.Allocator, int64, time.Duration) {
	npages := units.BytesToPages(probeMovable)
	a := buddy.New(0, npages)
	a.TrackRegions(units.PagesPerBlock)
	a.FreeRange(0, npages)
	pfns := make([]int64, 0, npages)
	for {
		pfn, ok := a.Alloc(0)
		if !ok {
			break
		}
		pfns = append(pfns, pfn)
	}
	rng.Shuffle(len(pfns), func(i, j int) { pfns[i], pfns[j] = pfns[j], pfns[i] })
	half := pfns[:len(pfns)/2]
	t0 := time.Now()
	for _, pfn := range half {
		a.Free(pfn, 0)
	}
	return a, int64(len(half)), time.Since(t0)
}

// probeIsolate times IsolateRange over every block of a fragmented
// allocator (half the pages free, scattered), per page scanned.
func probeIsolate(rng *rand.Rand) float64 {
	a, _, _ := fragmented(rng)
	t0 := time.Now()
	for pfn := int64(0); pfn < a.Span(); pfn += units.PagesPerBlock {
		a.IsolateRange(pfn, units.PagesPerBlock)
	}
	return nsPer(time.Since(t0), a.Span())
}

// probeBuddyFree times freeing a random half of a fully allocated
// span, page by page, with coalescing.
func probeBuddyFree(rng *rand.Rand) float64 {
	_, n, d := fragmented(rng)
	return nsPer(d, n)
}

// probeVirtioUnplug times a virtio-mem unplug of half a movable zone
// whose free lists were scrambled before it filled, as every virtio-mem
// plug does, so the unplugged blocks hold pages to migrate. The time
// includes the scheduler drain that completes the unplug and is given
// per block unplugged.
func probeVirtioUnplug(rng *rand.Rand) float64 {
	s := sim.NewScheduler()
	vm := vmm.New("probe", s, costmodel.Default(), hostmem.New(0), 4)
	k := guestos.NewKernel(vm, guestos.Config{
		BootBytes: units.BlockSize, MovableBytes: probeMovable, KernelResidentBytes: 8 * units.MiB,
	})
	d := virtiomem.New(k)
	d.Plug(probeMovable, func(int64) {})
	s.Run()
	k.ScrambleFreeLists(k.Movable, rng)
	procs := halfFull(k)
	for _, p := range procs[probeN/2:] {
		k.Exit(p)
	}
	var res virtiomem.UnplugResult
	t0 := time.Now()
	d.Unplug(probeMovable/2, func(r virtiomem.UnplugResult) { res = r })
	s.Run()
	return msPer(time.Since(t0), max(1, res.ReclaimedBytes/units.BlockSize))
}

// probeCoreUnplug times a Squeezy unplug of N freed, populated
// partitions, including the scheduler drain, per partition.
func probeCoreUnplug(*rand.Rand) float64 {
	s := sim.NewScheduler()
	vm := vmm.New("probe", s, costmodel.Default(), hostmem.New(0), 4)
	k := guestos.NewKernel(vm, guestos.Config{BootBytes: units.BlockSize, KernelResidentBytes: 8 * units.MiB})
	m := core.NewManager(k, core.Config{PartitionBytes: probeInstance, Concurrency: probeN})
	m.Plug(probeN, func(int) {})
	s.Run()
	for i := 0; i < probeN; i++ {
		p := k.Spawn("inst")
		m.Attach(p, func(*core.Partition) {})
		k.TouchAnon(p, probeInstance/2, guestos.HugeOrder)
		k.Exit(p)
	}
	var res core.UnplugResult
	t0 := time.Now()
	m.Unplug(probeN, func(r core.UnplugResult) { res = r })
	s.Run()
	return msPer(time.Since(t0), max(1, res.ReclaimedBytes/units.AlignUp(probeInstance, units.BlockSize)))
}

// probeInflate times a balloon inflation over guest-free but
// host-populated memory, including the scheduler drain, per page.
func probeInflate(*rand.Rand) float64 {
	k, s := guestKernel(probeMovable)
	procs := halfFull(k)
	for _, p := range procs {
		k.Exit(p)
	}
	d := balloon.New(k)
	var res balloon.InflateResult
	t0 := time.Now()
	d.Inflate(probeMovable/2, func(r balloon.InflateResult) { res = r })
	s.Run()
	return nsPer(time.Since(t0), max(1, units.BytesToPages(res.ReclaimedBytes)))
}

// probeSimEvent times scheduling and firing events at random future
// times, per event (At plus its Step).
func probeSimEvent(rng *rand.Rand) float64 {
	const n = 200_000
	s := sim.NewScheduler()
	at := make([]sim.Time, n)
	for i := range at {
		at[i] = sim.Time(rng.Int64N(int64(10 * sim.Second)))
	}
	fn := func() {}
	t0 := time.Now()
	for _, t := range at {
		s.At(t, fn)
	}
	for s.Step() {
	}
	return nsPer(time.Since(t0), n)
}

// probeStatsAdd times Sample.Add of latency-like values, exact or in
// reservoir-sketch mode, per value.
func probeStatsAdd(rng *rand.Rand, sketch bool) float64 {
	const n = 200_000
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = rng.ExpFloat64() * 3000
	}
	var s stats.Sample
	if sketch {
		s.EnableSketch(stats.SketchConfig{K: stats.DefaultSketchK, Seed: rng.Uint64()})
	}
	t0 := time.Now()
	for _, v := range vs {
		s.Add(v)
	}
	return nsPer(time.Since(t0), n)
}

// probeSketchMerge times merging per-host reservoir sketches into a
// fleet sketch, as Stats does at run end, per merge.
func probeSketchMerge(rng *rand.Rand) float64 {
	const hosts, perHost = 16, 20_000
	cfg := stats.SketchConfig{K: stats.DefaultSketchK, Seed: rng.Uint64()}
	parts := make([]*stats.Sample, hosts)
	for h := range parts {
		parts[h] = &stats.Sample{}
		c := cfg
		c.Stream = uint64(h)
		parts[h].EnableSketch(c)
		for i := 0; i < perHost; i++ {
			parts[h].Add(rng.ExpFloat64() * 3000)
		}
	}
	var fleet stats.Sample
	fleet.EnableSketch(cfg)
	t0 := time.Now()
	for _, p := range parts {
		fleet.Merge(p)
	}
	return nsPer(time.Since(t0), hosts)
}

// probeColdStart times one cold invocation on a fresh N:1 VM of the
// given backend, from Invoke to its completion, including the
// scheduler steps in between.
func probeColdStart(kind faas.BackendKind) float64 {
	s := sim.NewScheduler()
	host := hostmem.New(64 * units.GiB)
	fn := workload.ByName("Cnn")
	fv := faas.NewFuncVM(s, host, costmodel.Default(), faas.NewBroker(host, s), faas.VMConfig{
		Name: "probe", Kind: kind, Fn: fn, N: probeN, KeepAlive: 45 * sim.Second,
	})
	done := false
	t0 := time.Now()
	fv.Invoke(fn, func(faas.Result) { done = true })
	for !done && s.Step() {
	}
	return msPer(time.Since(t0), 1)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
