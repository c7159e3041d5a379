// Command perfbench is the repository's benchmark: it replays one
// workload of the simulator repeatedly for a fixed host-time budget,
// checks every replay's simulated output against recorded goldens and
// the cross-layer conservation laws, and prints host-time metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-overcommit --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced replays and reports per-layer metrics
// (spans around the public calls, layer probes, a CPU profile folded by
// package) and the tracing overhead. The last line of standard output
// is one JSON object; everything above it is a human-readable summary.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"syscall"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: paper-reclaim, fleet-overcommit or diurnal-squeezy")
	seed := flag.Uint64("seed", 1, "seed of the layer probes' random inputs")
	seconds := flag.Int("seconds", 10, "host seconds to keep replaying the workload")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced replays")
	simSeed := flag.Uint64("sim-seed", 0, "simulator seed of the workload (0: the workload's pinned seed)")
	spansPath := flag.String("spans", ".bench_build/spans.json", "where a traced run writes its spans")
	regoldenFlag := flag.Bool("regolden", false, "re-record perfbench/golden.json from the registry and exit")
	setupOnly := flag.Bool("setup-only", false, "run the workload's set-up path, print \"ready\" and exit (used to time set-up)")
	flag.Parse()

	if *regoldenFlag {
		if err := regolden(); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	sseed := w.seed
	if *simSeed != 0 {
		sseed = *simSeed
	}
	if *setupOnly {
		w.setup(sseed)
		fmt.Println("ready")
		return
	}
	goldens, err := loadGoldens()
	if err != nil {
		fatal(err)
	}

	b := &bench{w: w, simSeed: sseed, goldens: goldens}
	budget := time.Duration(*seconds) * time.Second
	var res result
	if *traceMode == 0 {
		res, err = b.endToEnd(budget)
	} else {
		res, err = b.traced(budget, *seed, *spansPath)
	}
	if err != nil {
		fatal(err)
	}
	b.summary(os.Stdout, *seed)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark process: a workload at a simulator seed, the
// replays run so far and their verdicts.
type bench struct {
	w       workloadDef
	simSeed uint64
	goldens goldenFile

	untracedReps, tracedReps []rep
	setups                   []float64 // seconds from process start to first simulated event
	peakHeap                 float64   // MiB, peak live heap over the untraced replays
	failed                   int
	unverified               bool // no golden recorded for the simulator seed
	firstDigest              string
	errs                     []string
}

// replay runs the workload once and checks its output: against the
// golden when one is recorded for the seed, against the conservation
// laws, and against the first replay of this process (determinism).
// A replay failing any check is one failed operation.
func (b *bench) replay(tr *tracer) rep {
	end := tr.beginReplay(b.w.name)
	r := b.w.run(b.simSeed, tr)
	end()
	if tr != nil {
		r.layer = tr.layer
		for metric, spanName := range setupSpans {
			r.layer[metric] = tr.selfs[spanName].Seconds()
		}
	}
	known, err := b.goldens.verify(b.w.name, b.simSeed, r)
	b.unverified = b.unverified || !known
	if err == nil && b.firstDigest != "" && r.digest != b.firstDigest {
		err = fmt.Errorf("output digest %s differs from the first replay's %s", r.digest, b.firstDigest)
	}
	if b.firstDigest == "" {
		b.firstDigest = r.digest
	}
	if err != nil {
		b.failed++
		b.errs = append(b.errs, err.Error())
		fmt.Fprintf(os.Stderr, "perfbench: %s replay failed: %v\n", b.w.name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s traced=%v wall %.3fs\n", b.w.name, tr != nil, r.wall.Seconds())
	return r
}

func (b *bench) result(metrics map[string]metric) result {
	n := len(b.untracedReps) + len(b.tracedReps)
	return result{Correct: b.failed == 0, Attempted: n, Failed: b.failed, Metrics: metrics}
}

// setupRuns is how many set-up-only processes a run times.
const setupRuns = 21

// endToEnd times the workload's set-up in separate processes, then
// replays it untraced until the budget is spent (at least once), and
// reports the medians of the end-to-end metrics.
func (b *bench) endToEnd(budget time.Duration) (result, error) {
	for i := 0; i < setupRuns; i++ {
		d, err := b.timeSetup()
		if err != nil {
			return result{}, err
		}
		b.setups = append(b.setups, d.Seconds())
	}
	stopWatch := watchLiveHeap()
	start := time.Now()
	for len(b.untracedReps) == 0 || time.Since(start) < budget {
		b.untracedReps = append(b.untracedReps, b.replay(nil))
	}
	b.peakHeap = float64(stopWatch()) / (1 << 20)
	walls, allocs := series(b.untracedReps)
	return b.result(map[string]metric{
		"wall_s":        {median(walls), "s"},
		"setup_s":       {median(b.setups), "s"},
		"alloc_mib":     {median(allocs), "MiB"},
		"peak_heap_mib": {b.peakHeap, "MiB"},
	}), nil
}

// timeSetup starts this program in set-up-only mode and returns the
// host time from starting the process to its report that the workload
// reached its first simulated event: process start, package
// initialisation (the experiment registry), and the workload's own
// set-up path.
func (b *bench) timeSetup() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", b.w.name, "--sim-seed", strconv.FormatUint(b.simSeed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("set-up run: %w", err)
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up run: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up run: unexpected output %q (%v)", line, readErr)
	}
	return d, nil
}

func series(reps []rep) (walls, allocs []float64) {
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.allocBytes)/(1<<20))
	}
	return walls, allocs
}

// layers are the simulator's packages; the CPU profile of the traced
// replays is split among them.
var layers = []string{
	"balloon", "buddy", "cluster", "core", "costmodel", "cpu", "experiments",
	"faas", "fault", "guestos", "hostmem", "mem", "obs", "sim", "stats",
	"trace", "units", "virtiomem", "vmm", "workload",
}

// layerMetrics are the per-layer numbers the replays record, with their
// units. A layer a workload never calls reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"experiments.cell_wall_s", "s"},
	{"experiments.slowest_cell_s", "s"},
	{"experiments.parallel_floor_s", "s"},
	{"experiments.wait_s", "s"},
	{"cluster.replay_self_s", "s"},
	{"cluster.shard_wall_max_s", "s"},
	{"cluster.shard_wall_sum_s", "s"},
	{"cluster.events_fired", "count"},
	{"cluster.vms", "count"},
	{"trace.next_s", "s"},
	{"workload.pool_get_s", "s"},
	{"stats.summary_s", "s"},
	{"cluster.new_s", "s"},
	{"trace.new_stream_s", "s"},
	{"fault.scenario_s", "s"},
}

// setupSpans names the spans whose self time is a per-layer set-up
// metric.
var setupSpans = map[string]string{
	"cluster.new_s":      "cluster.NewSharded",
	"trace.new_stream_s": "trace.NewFleetStream",
	"fault.scenario_s":   "fault.Scenario",
}

// traced alternates untraced and traced replays until the budget is
// spent (at least one of each), profiling the CPU during the traced
// ones, then runs the layer probes. It reports the medians of the
// per-layer numbers over the traced replays, the probes, the CPU share
// of every layer, and the tracing overhead.
func (b *bench) traced(budget time.Duration, probeSeed uint64, spansPath string) (result, error) {
	tr := newTracer()
	cpu := map[string]float64{}
	start := time.Now()
	for len(b.tracedReps) == 0 || time.Since(start) < budget {
		b.untracedReps = append(b.untracedReps, b.replay(nil))
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		r := b.replay(tr)
		pprof.StopCPUProfile()
		b.tracedReps = append(b.tracedReps, r)
		w, err := foldProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		for layer, ns := range w {
			cpu[layer] += ns
		}
	}
	if err := tr.write(spansPath); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}

	m := map[string]metric{}
	for _, lm := range layerMetrics {
		var xs []float64
		for _, r := range b.tracedReps {
			xs = append(xs, r.layer[lm.name])
		}
		m[lm.name] = metric{median(xs), lm.unit}
	}
	var perInv []float64
	for _, r := range b.tracedReps {
		if r.invocations > 0 {
			perInv = append(perInv, r.layer["trace.next_s"]*1e9/float64(r.invocations))
		}
	}
	m["trace.ns_per_inv"] = metric{median(perInv), "ns"}

	for name, v := range runProbes(probeSeed) {
		m[name] = v
	}

	var total float64
	for _, ns := range cpu {
		total += ns
	}
	for _, layer := range append(slices.Clone(layers), "other") {
		share := 0.0
		if total > 0 {
			share = 100 * cpu[layer] / total
		}
		m["cpu_share."+layer] = metric{share, "%"}
	}
	tw, _ := series(b.tracedReps)
	uw, _ := series(b.untracedReps)
	m["trace_overhead_s"] = metric{median(tw) - median(uw), "s"}
	return b.result(m), nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

// summary prints the failed replays' errors and every metric with its
// quartiles and sample count, followed by the simulated headline
// numbers the goldens pin.
func (b *bench) summary(f *os.File, probeSeed uint64) {
	fmt.Fprintf(f, "workload %s  simulator seed %d (pinned %d, held-out %d)  probe seed %d\n",
		b.w.name, b.simSeed, b.w.seed, b.w.heldOut, probeSeed)
	if b.unverified {
		fmt.Fprintln(f, "no golden output recorded for this simulator seed: checked conservation and determinism only")
	}
	for _, e := range b.errs {
		fmt.Fprintln(f, "FAILED:", e)
	}
	line := func(name, unit string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(f, "  %-20s %12.4f %-6s  q1 %.4f  q3 %.4f  n=%d\n", name, q2, unit, q1, q3, len(xs))
	}
	for _, set := range []struct {
		label string
		reps  []rep
	}{{"untraced", b.untracedReps}, {"traced", b.tracedReps}} {
		if len(set.reps) == 0 {
			continue
		}
		fmt.Fprintf(f, "%s replays:\n", set.label)
		walls, allocs := series(set.reps)
		line("wall_s", "s", walls)
		line("alloc_mib", "MiB", allocs)
		var rates []float64
		for _, r := range set.reps {
			if r.invocations > 0 {
				rates = append(rates, float64(r.invocations)/r.wall.Seconds())
			}
		}
		line("invocations_per_s", "1/s", rates)
	}
	line("setup_s", "s", b.setups)
	if b.peakHeap > 0 {
		fmt.Fprintf(f, "  %-20s %12.4f MiB\n", "peak_heap_mib", b.peakHeap)
	}
	fmt.Fprintf(f, "  %-20s %12.4f MiB\n", "peak_rss_mib", peakRSSMiB())
	r := b.untracedReps[0]
	if r.invocations > 0 {
		fmt.Fprintf(f, "  %-20s %12d (simulated, per replay)\n", "invocations", r.invocations)
		fmt.Fprintf(f, "  %-20s %12.1f ms (simulated)\n", "sim_cold_p99_ms", r.simColdP99)
	}
	if r.simSpeedup > 0 {
		fmt.Fprintf(f, "  %-20s %12.4f x (simulated)\n", "sim_reclaim_speedup", r.simSpeedup)
	}
}

// watchLiveHeap samples the live heap — the bytes the most recent
// garbage collection found reachable — every few milliseconds until
// the returned function is called, which stops the sampler, waits for
// it and returns the peak. Transient garbage never counts; anything a
// replay keeps reachable does.
func watchLiveHeap() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, sample[0].Value.Uint64())
		}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() uint64 {
		close(done)
		<-exited
		read()
		return peak
	}
}
