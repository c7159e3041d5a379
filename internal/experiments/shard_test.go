package experiments

import (
	"fmt"
	"sync/atomic"
	"testing"

	"squeezy/internal/faas"
	"squeezy/internal/sim"
	"squeezy/internal/units"
)

// TestFleetShardCountByteIdentity is the experiments-level acceptance
// gate for the tentpole: one pressured fleet cell run unsharded
// (shards=1), at shards=2, and at one shard per host must produce an
// identical stats row — the row the cluster tables are built from.
func TestFleetShardCountByteIdentity(t *testing.T) {
	fc := fleetCfg{
		policy: "reclaim-aware", backend: faas.VirtioMem,
		hosts: 3, hostMem: 20 * units.GiB,
		funcs: 12, duration: 45 * sim.Second, baseRPS: 6, burstRPS: 30,
	}
	run := func(shards int) fleetStats {
		fc := fc
		fc.shards = shards
		return fleetRun(newWorld(), 9, fc)
	}
	want := run(1)
	if want.Invoked == 0 || want.Cold == 0 {
		t.Fatalf("degenerate run: %+v", want)
	}
	for _, shards := range []int{2, 3, 0 /* one per host */} {
		if got := run(shards); got != want {
			t.Fatalf("shards=%d diverges:\n%+v\n%+v", shards, got, want)
		}
	}
}

// TestFleetShardsOnPooledWorld re-runs the same sharded fleet cell on
// a World that already ran a different shape and requires identity
// with a fresh World.
func TestFleetShardsOnPooledWorld(t *testing.T) {
	fc := fleetCfg{
		policy: "headroom", backend: faas.Squeezy,
		hosts: 2, hostMem: 16 * units.GiB,
		funcs: 8, duration: 30 * sim.Second, baseRPS: 4, burstRPS: 20,
	}
	want := fleetRun(newWorld(), 4, fc)

	w := newWorld()
	dirty := fc
	dirty.backend, dirty.hosts, dirty.policy = faas.Harvest, 4, "round-robin"
	w.begin()
	fleetRun(w, 99, dirty) // run a different shape first
	w.endCell()
	w.begin()
	got := fleetRun(w, 4, fc)
	w.endCell()
	if got != want {
		t.Fatalf("fleet run on a used world diverges from fresh:\n%+v\n%+v", got, want)
	}
}

// TestExecutorSubTasks exercises the sub-cell task path of the worker
// pool directly: a registered plan whose cells fan out tasks through
// World.Exec must complete every task exactly once at any worker
// count, including workers=1 (the publisher must be able to run its
// own batch).
func TestExecutorSubTasks(t *testing.T) {
	const cells, tasksPerCell = 3, 8
	var ran atomic.Int64
	RegisterPlan("test-subtasks", "sub-task fan-out test plan", func(o Options) *Plan {
		res := make([]int64, cells)
		p := &Plan{Assemble: func() Result {
			tab := &Table{Title: "subtasks", Header: []string{"n"}}
			for _, v := range res {
				tab.AddRow(fmt.Sprintf("%d", v))
			}
			return tab
		}}
		for i := 0; i < cells; i++ {
			i := i
			p.Stage.Cell(fmt.Sprintf("cell%d", i), func(w *World) {
				var local atomic.Int64
				tasks := make([]func(), tasksPerCell)
				for j := range tasks {
					tasks[j] = func() { local.Add(1); ran.Add(1) }
				}
				w.Exec(tasks)
				res[i] = local.Load()
			})
		}
		return p
	})
	defer delete(registry, "test-subtasks")

	for _, workers := range []int{1, 4} {
		ran.Store(0)
		reports, err := Run([]string{"test-subtasks"}, Options{}, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != cells*tasksPerCell {
			t.Fatalf("workers=%d ran %d tasks, want %d", workers, got, cells*tasksPerCell)
		}
		for _, row := range reports[0].Table.Rows {
			if row[0] != fmt.Sprintf("%d", tasksPerCell) {
				t.Fatalf("workers=%d cell saw %s of its tasks", workers, row[0])
			}
		}
	}
}

// TestFleetCellReportsShardWalls checks the -cellstats plumbing end to
// end: cluster cells surface one wall per shard through the executor.
func TestFleetCellReportsShardWalls(t *testing.T) {
	_, stats, err := RunWithCellStats([]string{"cluster-overcommit"}, Options{Quick: true, Seed: 2}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no cell stats")
	}
	for _, s := range stats {
		if len(s.ShardWalls) == 0 {
			t.Fatalf("cell %s/%s reported no shard walls", s.Experiment, s.Label)
		}
	}
}

// TestWorkersForBudget pins the -parallel 0 capping rule.
func TestWorkersForBudget(t *testing.T) {
	cases := []struct {
		procs  int
		budget int64
		want   int
	}{
		{8, 0, 8},                           // no budget: uncapped
		{8, 16 * WorldMemEstimateBytes, 8},  // roomy: uncapped
		{8, 3 * WorldMemEstimateBytes, 3},   // tight: capped below procs
		{8, WorldMemEstimateBytes / 2, 1},   // tiny: never below one
		{1, 64 * WorldMemEstimateBytes, 1},  // single core stays single
		{0, 2 * WorldMemEstimateBytes, 1},   // degenerate procs
		{4, 4*WorldMemEstimateBytes + 1, 4}, // exact fit counts
		{4, 4*WorldMemEstimateBytes - 1, 3}, // just under drops one
	}
	for _, c := range cases {
		if got := workersForBudget(c.procs, c.budget); got != c.want {
			t.Fatalf("workersForBudget(%d, %d) = %d, want %d", c.procs, c.budget, got, c.want)
		}
	}
	if AutoWorkers(0) < 1 {
		t.Fatal("AutoWorkers must return at least one worker")
	}
}
