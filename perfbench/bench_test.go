package main

import (
	"bytes"
	"math/rand/v2"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

// The summary's quartiles follow Python's statistics.quantiles(xs, n=4),
// the statistic the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// A profile of work done inside the sim package charges CPU to "sim".
func TestFoldProfileChargesInnermostInternalPackage(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for start := time.Now(); time.Since(start) < time.Second; {
		probeSimEvent(rng)
	}
	pprof.StopCPUProfile()
	w, err := foldProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, ns := range w {
		total += ns
	}
	if w["sim"] == 0 {
		t.Fatalf("sim charged %.0f of %.0f ns: %v", w["sim"], total, w)
	}
}

func TestExecPoolRunsEveryTaskOnce(t *testing.T) {
	var runs [7]atomic.Int32
	tasks := make([]func(), len(runs))
	for i := range tasks {
		tasks[i] = func() { runs[i].Add(1) }
	}
	for round := 0; round < 50; round++ {
		execPool(tasks)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 50 {
			t.Fatalf("task %d ran %d times, want 50", i, n)
		}
	}
}

// Set-up-only replays stop at the first simulated event and return.
func TestSetupStopsAtFirstEvent(t *testing.T) {
	for _, w := range workloads {
		w.setup(w.seed)
	}
}
