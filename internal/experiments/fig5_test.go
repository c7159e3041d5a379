package experiments

import (
	"fmt"
	"testing"
)

func TestFig5Shape(t *testing.T) {
	res := Fig5Plan(Options{Quick: true}).runSerial(newWorld()).(*Fig5Result)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]Fig5Row{}
	for _, r := range res.Rows {
		byKey[fmt.Sprintf("%s/%d", r.Method, r.SizeMiB)] = r
		if r.AvgLatencyMs <= 0 {
			t.Fatalf("%s/%d has no latency", r.Method, r.SizeMiB)
		}
	}
	// Headline orderings: squeezy << virtio-mem << balloon at 512 MiB.
	sq, vm, ba := byKey["squeezy/512"], byKey["virtio-mem/512"], byKey["balloon/512"]
	if !(sq.AvgLatencyMs < vm.AvgLatencyMs && vm.AvgLatencyMs < ba.AvgLatencyMs) {
		t.Fatalf("ordering broken: sq=%.0f vm=%.0f ba=%.0f",
			sq.AvgLatencyMs, vm.AvgLatencyMs, ba.AvgLatencyMs)
	}
	// Squeezy never migrates or zeroes.
	if sq.MigrationMs != 0 || sq.ZeroingMs != 0 {
		t.Fatalf("squeezy breakdown: %+v", sq)
	}
	// Balloon is exit-dominated; virtio-mem migration-heavy.
	if ba.VMExitsMs < ba.MigrationMs {
		t.Fatalf("balloon not exit-dominated: %+v", ba)
	}
	if vm.MigrationMs <= 0 {
		t.Fatalf("virtio-mem without migrations: %+v", vm)
	}
	// Latency grows with size for balloon (page-granular).
	if byKey["balloon/512"].AvgLatencyMs <= byKey["balloon/128"].AvgLatencyMs {
		t.Fatal("balloon latency not growing with size")
	}
	// Order-of-magnitude claim (allow a broad band in quick mode).
	if sp := res.Speedup("virtio-mem", "squeezy"); sp < 4 {
		t.Fatalf("squeezy speedup over virtio-mem = %.1fx, want >= 4x", sp)
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}
