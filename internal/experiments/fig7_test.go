package experiments

import "testing"

func TestFig7Shape(t *testing.T) {
	res := Fig7Plan(Options{Quick: true}).runSerial(newWorld()).(*Fig7Result)
	byM := map[string]Fig7Series{}
	for _, s := range res.Series {
		byM[s.Method] = s
	}
	ba, vm, sq := byM["balloon"], byM["virtio-mem"], byM["squeezy"]
	// Ballooning hammers the host-side thread (VM exits).
	if ba.PeakHost() < 50 {
		t.Fatalf("balloon host peak = %.1f%%, expected heavy spikes", ba.PeakHost())
	}
	// Vanilla virtio-mem burns the guest vCPU on migrations.
	if vm.PeakGuest() < 30 {
		t.Fatalf("virtio-mem guest peak = %.1f%%, expected migration load", vm.PeakGuest())
	}
	if vm.PeakGuest() <= sq.PeakGuest() {
		t.Fatal("virtio-mem guest CPU not above squeezy")
	}
	// Squeezy is negligible on both sides (§6.1.2).
	if sq.AvgGuest() > 5 || sq.AvgHost() > 5 {
		t.Fatalf("squeezy avg utilization guest=%.1f%% host=%.1f%%, expected negligible",
			sq.AvgGuest(), sq.AvgHost())
	}
	if len(sq.GuestPct) < 50 {
		t.Fatalf("samples = %d", len(sq.GuestPct))
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}
