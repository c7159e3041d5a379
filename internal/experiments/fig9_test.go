package experiments

import "testing"

func TestFig9Shape(t *testing.T) {
	res := Fig9Plan(Options{}).runSerial(newWorld()).(*Fig9Result)
	byM := map[string]Fig9Series{}
	for _, s := range res.Series {
		byM[s.Method] = s
	}
	vm, sq := byM["virtio-mem"], byM["squeezy"]
	if vm.Baseline() <= 0 || sq.Baseline() <= 0 {
		t.Fatalf("no baseline latency: vm=%v sq=%v", vm.Baseline(), sq.Baseline())
	}
	// Vanilla virtio-mem's migrations slow CNN down substantially
	// during the HTML scale-down (paper: >2x).
	vmSlow := vm.PeakDuring() / vm.Baseline()
	sqSlow := sq.PeakDuring() / sq.Baseline()
	if vmSlow < 1.5 {
		t.Fatalf("virtio-mem slowdown = %.2fx, expected visible interference", vmSlow)
	}
	// Squeezy does not interfere.
	if sqSlow > 1.45 {
		t.Fatalf("squeezy slowdown = %.2fx, expected none", sqSlow)
	}
	if vmSlow <= sqSlow {
		t.Fatal("virtio-mem interference not above squeezy")
	}
}

func TestFig11Shape(t *testing.T) {
	res := Fig11Plan(Options{}).runSerial(newWorld()).(*Fig11Result)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Boot dominates the 1:1 VMM phase; plug is tiny in N:1
		// (§6.3: plug is ~1.19% of cold start).
		if row.OneToOne.VMMDelayMs < 500 {
			t.Fatalf("%s 1:1 boot = %.0fms", row.Fn, row.OneToOne.VMMDelayMs)
		}
		if row.NToOne.VMMDelayMs >= 100 {
			t.Fatalf("%s N:1 plug = %.0fms", row.Fn, row.NToOne.VMMDelayMs)
		}
		// N:1 container and function init benefit from the shared cache.
		if row.NToOne.ContainerInitMs >= row.OneToOne.ContainerInitMs {
			t.Fatalf("%s container init not faster in N:1", row.Fn)
		}
		if row.OneToOne.TotalMs() <= row.NToOne.TotalMs() {
			t.Fatalf("%s cold start not faster in N:1", row.Fn)
		}
		if row.Footprint1to1 <= row.FootprintN1 {
			t.Fatalf("%s footprint not larger in 1:1", row.Fn)
		}
	}
	// Headline geomeans: ≈1.6x faster cold starts, ≈2.53x footprint.
	if sp := res.ColdStartSpeedup(); sp < 1.2 || sp > 2.5 {
		t.Fatalf("cold start speedup = %.2fx, outside the paper's band", sp)
	}
	if fr := res.FootprintRatio(); fr < 1.7 || fr > 4 {
		t.Fatalf("footprint ratio = %.2fx, outside the paper's band", fr)
	}
}
