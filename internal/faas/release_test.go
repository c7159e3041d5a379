package faas

import (
	"slices"
	"testing"

	"squeezy/internal/costmodel"
	"squeezy/internal/guestos"
	"squeezy/internal/hostmem"
	"squeezy/internal/mem"
	"squeezy/internal/sim"
)

// TestReleaseRecyclesKernelArenas drives the one FuncVM → kernel
// recycle path: a runtime released (twice) into a shared
// guestos.Recycler must hand the next runtime arenas that replay the
// same request mix exactly like a runtime built without a recycler.
// A release that queued a kernel's zones twice would alias one zone
// into two live kernels: the second runtime and a third one built
// from the same recycler while the second is still alive.
func TestReleaseRecyclesKernelArenas(t *testing.T) {
	for _, kind := range []BackendKind{Squeezy, VirtioMem} {
		t.Run(kind.String(), func(t *testing.T) {
			want := releaseMix(nil, kind)

			rec := guestos.NewRecycler()
			first := releaseMix(rec, kind)
			used := map[*mem.Zone]bool{}
			for _, fv := range first.VMs {
				for _, z := range fv.K.Zones() {
					used[z] = true
				}
			}
			first.Release()
			first.Release() // idempotent: must not queue the arenas twice
			for _, fv := range first.VMs {
				fv.Release()
			}

			got := releaseMix(rec, kind)
			live := releaseMix(rec, kind) // built while got is still alive
			seen := map[*mem.Zone]bool{}
			reused := 0
			for _, r := range []*Runtime{got, live} {
				for _, fv := range r.VMs {
					for _, z := range fv.K.Zones() {
						if seen[z] {
							t.Fatalf("zone %s backs two live kernels", z.Name)
						}
						seen[z] = true
						if used[z] {
							reused++
						}
					}
				}
			}
			if reused == 0 {
				t.Fatal("second runtime reused no released zone")
			}
			if len(want.VMs[0].Completions) == 0 {
				t.Fatal("degenerate mix: nothing completed")
			}

			for i, fv := range got.VMs {
				w := want.VMs[i]
				if !slices.Equal(fv.Completions, w.Completions) {
					t.Fatalf("%s: completions diverge from a fresh runtime:\n%v\n%v",
						fv.Cfg.Name, fv.Completions, w.Completions)
				}
				if len(fv.Latencies) != len(w.Latencies) {
					t.Fatalf("%s: %d latency samples, fresh has %d",
						fv.Cfg.Name, len(fv.Latencies), len(w.Latencies))
				}
				for fn, s := range fv.Latencies {
					if !slices.Equal(s.Values(), w.Latencies[fn].Values()) {
						t.Fatalf("%s/%s: latencies diverge from a fresh runtime", fv.Cfg.Name, fn)
					}
				}
			}
		})
	}
}

// releaseMix runs a short two-VM request mix to completion on a new
// runtime whose kernels build from rec (nil builds them fresh).
func releaseMix(rec *guestos.Recycler, kind BackendKind) *Runtime {
	r := NewRuntime(sim.NewScheduler(), hostmem.New(0), costmodel.Default())
	r.Recycle = rec
	vms := []*FuncVM{addVM(r, kind, "HTML", 4), addVM(r, kind, "BFS", 4)}
	for i := 0; i < 24; i++ {
		fv := vms[i%3/2] // two HTML requests per BFS request
		r.Sched.At(sim.Time(i)*sim.Time(900*sim.Millisecond), func() { fv.InvokePrimary(nil) })
	}
	r.Sched.Run()
	return r
}
