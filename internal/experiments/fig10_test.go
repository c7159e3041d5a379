package experiments

import "testing"

func TestFig10Shape(t *testing.T) {
	res := Fig10Plan(Options{Quick: true}).runSerial(newWorld()).(*Fig10Result)
	// Every method completed its requests (or close to it).
	for _, run := range res.Runs {
		if run.Dropped > 5 {
			t.Fatalf("%s dropped %d requests", run.Method, run.Dropped)
		}
		if len(run.P99Ms) != 4 {
			t.Fatalf("%s has P99 for %d functions", run.Method, len(run.P99Ms))
		}
	}
	sq := res.GeomeanP99("squeezy")
	vm := res.GeomeanP99("virtio-mem")
	hv := res.GeomeanP99("harvestvm-opts")
	// Squeezy keeps tail latency near the abundant baseline (§6.2.2:
	// 1.1x); vanilla virtio-mem suffers badly (3.15x); the HarvestVM
	// optimizations land in between.
	if sq > 1.8 {
		t.Fatalf("squeezy normalized P99 = %.2fx, want near 1", sq)
	}
	if vm < 2*sq {
		t.Fatalf("virtio-mem (%.2fx) not clearly worse than squeezy (%.2fx)", vm, sq)
	}
	if hv <= sq || hv >= vm {
		t.Fatalf("harvest (%.2fx) not between squeezy (%.2fx) and virtio-mem (%.2fx)", hv, sq, vm)
	}
	// Memory integral: squeezy below harvest (buffers cost memory).
	if res.GiBs("squeezy") >= res.GiBs("harvestvm-opts") {
		t.Fatalf("squeezy GiB*s (%.0f) not below harvest (%.0f)",
			res.GiBs("squeezy"), res.GiBs("harvestvm-opts"))
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}
