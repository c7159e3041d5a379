package vmm

import (
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/cpu"
	"squeezy/internal/hostmem"
	"squeezy/internal/sim"
	"squeezy/internal/stats"
	"squeezy/internal/units"
)

func newVM(t *testing.T) (*VM, *sim.Scheduler) {
	t.Helper()
	s := sim.NewScheduler()
	h := hostmem.New(0)
	return New("vm0", s, costmodel.Default(), h, 4), s
}

func TestCommitUncommit(t *testing.T) {
	vm, _ := newVM(t)
	if !vm.Commit(1000) {
		t.Fatal("commit failed on unlimited host")
	}
	if vm.CommittedPages() != 1000 {
		t.Fatalf("committed = %d", vm.CommittedPages())
	}
	if vm.CommittedBytes() != 1000*units.PageSize {
		t.Fatalf("committed bytes = %d", vm.CommittedBytes())
	}
	vm.Uncommit(400)
	if vm.CommittedPages() != 600 {
		t.Fatalf("committed = %d", vm.CommittedPages())
	}
}

func TestCommitRespectsHostBudget(t *testing.T) {
	s := sim.NewScheduler()
	h := hostmem.New(1 * units.MiB) // 256 pages
	vm := New("vm0", s, costmodel.Default(), h, 1)
	if !vm.Commit(256) {
		t.Fatal("commit within budget failed")
	}
	if vm.Commit(1) {
		t.Fatal("commit beyond budget succeeded")
	}
}

func TestPopulateChargesNestedFaults(t *testing.T) {
	vm, _ := newVM(t)
	vm.Commit(1000)
	d := vm.PopulatePages(100)
	if want := 100 * vm.Cost.NestedFaultPerPage; d != want {
		t.Fatalf("latency = %v, want %v", d, want)
	}
	if vm.PopulatedPages() != 100 {
		t.Fatalf("populated = %d", vm.PopulatedPages())
	}
	if vm.Exits("ept") != 100 {
		t.Fatalf("ept exits = %d", vm.Exits("ept"))
	}
	if vm.Host.PopulatedPages() != 100 {
		t.Fatalf("host populated = %d", vm.Host.PopulatedPages())
	}
}

func TestPopulateBeyondCommitPanics(t *testing.T) {
	vm, _ := newVM(t)
	vm.Commit(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	vm.PopulatePages(11)
}

func TestReleaseClampsToPopulated(t *testing.T) {
	vm, _ := newVM(t)
	vm.Commit(100)
	vm.PopulatePages(50)
	vm.ReleasePages(80) // partially populated block being unplugged
	if vm.PopulatedPages() != 0 {
		t.Fatalf("populated = %d", vm.PopulatedPages())
	}
}

func TestRunChainSerializesAndMeasures(t *testing.T) {
	vm, s := newVM(t)
	gotTotal := sim.Duration(-1)
	var gotBD *stats.Breakdown
	steps := []Step{
		{Pool: vm.VCPUs, Work: 10 * sim.Millisecond, Class: "virtio-mem", Label: StepMigration},
		{Pool: vm.VCPUs, Work: 0, Class: "virtio-mem", Label: StepZeroing}, // skipped
		{Pool: vm.HostThreads, Work: 3 * sim.Millisecond, Class: "vmm", Label: StepVMExits},
	}
	RunChain(s, steps, func(bd *stats.Breakdown, total sim.Duration) {
		gotBD, gotTotal = bd, total
	})
	s.Run()
	if gotTotal != 13*sim.Millisecond {
		t.Fatalf("total = %v, want 13ms", gotTotal)
	}
	if gotBD.Get(StepMigration) != 10 || gotBD.Get(StepVMExits) != 3 {
		t.Fatalf("breakdown = %v", gotBD)
	}
	if gotBD.Get(StepZeroing) != 0 {
		t.Fatalf("zero-work step accrued time: %v", gotBD)
	}
}

func TestRunChainContentionInflatesWallTime(t *testing.T) {
	vm, s := newVM(t)
	// Saturate the single host thread with a competing job.
	vm.HostThreads.Submit(20*sim.Millisecond, cpu.Config{Class: "other"})
	var gotTotal sim.Duration
	RunChain(s, []Step{
		{Pool: vm.HostThreads, Work: 20 * sim.Millisecond, Class: "vmm", Label: StepVMExits},
	}, func(_ *stats.Breakdown, total sim.Duration) { gotTotal = total })
	s.Run()
	// Two equal jobs sharing one core: wall time doubles.
	if gotTotal != 40*sim.Millisecond {
		t.Fatalf("total = %v, want 40ms under contention", gotTotal)
	}
}

func TestRunChainEmpty(t *testing.T) {
	_, s := newVM(t)
	called := false
	RunChain(s, nil, func(bd *stats.Breakdown, total sim.Duration) {
		called = true
		if total != 0 {
			t.Errorf("total = %v", total)
		}
	})
	s.Run()
	if !called {
		t.Fatal("done not called for empty chain")
	}
}

// stubFaults is a fixed fault window.
type stubFaults struct {
	stall    sim.Duration
	fraction float64
}

func (f stubFaults) ReclaimStall() sim.Duration { return f.stall }
func (f stubFaults) ReclaimFraction() float64   { return f.fraction }

// A Device runs one command at a time in FIFO order; an injected stall
// delays a completion while the device stays busy, so the next queued
// command starts only after it; an injected fraction trims requests.
func TestDeviceQueueStallAndTrim(t *testing.T) {
	s := sim.NewScheduler()
	var d Device
	var log []string
	cmd := func(name string, work sim.Duration) func() {
		return func() {
			log = append(log, name+" start")
			s.After(work, func() {
				d.Deliver(s, func() {
					log = append(log, name+" done")
					d.Finish()
				})
			})
		}
	}
	d.Enqueue(cmd("a", 10))
	d.Enqueue(cmd("b", 10))
	d.Faults = stubFaults{stall: 5, fraction: 0.5}
	s.Run()
	want := []string{"a start", "a done", "b start", "b done"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
	// a: 10 of work + 5 stalled; b: starts at 15, 10 of work + 5.
	if s.Now() != 30 {
		t.Fatalf("clock = %d, want 30 (both completions stalled)", s.Now())
	}
	if got := d.Trim(7); got != 3 {
		t.Fatalf("Trim(7) at fraction 0.5 = %d, want 3", got)
	}
	d.Faults = nil
	if got := d.Trim(7); got != 7 {
		t.Fatalf("Trim(7) without faults = %d, want 7", got)
	}
	d.Enqueue(cmd("c", 1)) // idle again: runs at once
	if log[len(log)-1] != "c start" {
		t.Fatalf("idle device did not start c at once: %v", log)
	}
}
