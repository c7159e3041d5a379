package experiments

import (
	"time"

	"squeezy/internal/cluster"
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/hostmem"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
)

// World is the per-worker state one worker hands to each cell it
// executes. Every cell gets a fresh scheduler, and everything it builds
// on it — VMs, guest kernels, runtimes, fleets — is fresh too and dies
// with the cell: no simulator state crosses a cell, so worker count
// and cell interleaving never leak into results.
//
// A World is owned by exactly one goroutine. The shard tasks a sharded
// fleet cell fans out through Exec touch only that fleet's per-host
// state.
type World struct {
	sched *sim.Scheduler

	// par, when non-nil, runs a batch of independent sub-cell tasks on
	// the executor's worker pool (runner.go installs it); nil runs
	// them serially. Exec exposes it to cells.
	par func(tasks []func())

	// shardWalls is the per-shard wall-clock breakdown the current
	// cell reported via NoteShardWalls, if any; the executor drains it
	// into the cell's CellStat.
	shardWalls []time.Duration

	// Observability: the executor hands each cell its identity and the
	// run's sink via beginObs; Trace lazily creates the cell's trace,
	// and endCell flushes a non-empty one into the sink. All nil when
	// tracing is off.
	obsSink  *obs.Sink
	obsTrace *obs.Trace
	obsExp   string
	obsTrial int
	obsLabel string
}

// newWorld returns a fresh world, ready for its first cell.
func newWorld() *World {
	return &World{sched: sim.NewScheduler()}
}

// begin prepares the world for the next cell: a fresh scheduler at
// virtual time zero, and cleared per-cell reporting state.
func (w *World) begin() {
	w.sched = sim.NewScheduler()
	w.shardWalls = nil
}

// beginObs sets the next cell's trace identity. A nil sink disables
// tracing for the cell (Trace returns nil and every layer stays on its
// free disabled path).
func (w *World) beginObs(sink *obs.Sink, exp string, trial int, label string) {
	w.obsSink = sink
	w.obsTrace = nil
	w.obsExp, w.obsTrial, w.obsLabel = exp, trial, label
}

// Trace returns the current cell's trace, creating it on first use; nil
// when tracing is off. Cells that build their stack through the World
// (Fleet, Runtime) are traced automatically; a cell wiring layers by
// hand can AttachObs the trace itself.
func (w *World) Trace() *obs.Trace {
	if w.obsSink == nil {
		return nil
	}
	if w.obsTrace == nil {
		w.obsTrace = &obs.Trace{Experiment: w.obsExp, Trial: w.obsTrial, Label: w.obsLabel}
	}
	return w.obsTrace
}

// endCell flushes the finished cell's trace, if it recorded anything,
// into the run's sink.
func (w *World) endCell() {
	if w.obsTrace != nil && !w.obsTrace.Empty() {
		w.obsSink.Add(w.obsTrace)
	}
	w.obsTrace = nil
}

// Scheduler returns the cell's scheduler, fresh at virtual time zero.
func (w *World) Scheduler() *sim.Scheduler { return w.sched }

// Runtime builds a FaaS runtime on the world's scheduler, traced as
// the cell's next host when tracing is on.
func (w *World) Runtime(host *hostmem.Host, cost *costmodel.Model) *faas.Runtime {
	rt := faas.NewRuntime(w.sched, host, cost)
	if tr := w.Trace(); tr != nil {
		rt.Obs = tr.HostTrack(len(tr.Hosts()), w.sched)
	}
	return rt
}

// Fleet returns a fresh sharded fleet of the requested shape, with
// its Exec hook wired to the world so shard tasks land on the
// executor's worker pool. Each host runs on its own scheduler, so
// whichever shard worker advances it sees only that host's state.
func (w *World) Fleet(cost *costmodel.Model, cfg cluster.Config, policy cluster.Policy) *cluster.ShardedCluster {
	fleet := cluster.NewSharded(cost, cfg, policy)
	fleet.Exec = w.Exec
	fleet.AttachObs(w.Trace())
	return fleet
}

// Exec runs independent sub-cell tasks — a sharded fleet's per-host
// advances — to completion: on the executor's worker pool when the
// world belongs to one (idle and waiting workers pick them up), else
// serially in order. Tasks must be order-independent; results may not
// depend on which path ran them.
func (w *World) Exec(tasks []func()) {
	if w.par != nil {
		w.par(tasks)
		return
	}
	for _, t := range tasks {
		t()
	}
}

// NoteShardWalls reports the finished cell's per-shard wall-clock
// breakdown for `squeezyctl -cellstats`. Walls are instrumentation
// only and never enter a Report.
func (w *World) NoteShardWalls(walls []time.Duration) {
	w.shardWalls = append(w.shardWalls[:0], walls...)
}
