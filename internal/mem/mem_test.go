package mem

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"squeezy/internal/units"
)

func newOnlineZone(t *testing.T, blocks int) *Zone {
	t.Helper()
	z := NewZone("test", ZoneMovable, 0, int64(blocks)*units.PagesPerBlock)
	for i := 0; i < blocks; i++ {
		z.OnlineBlock(i)
	}
	return z
}

func TestZoneGeometry(t *testing.T) {
	z := NewZone("movable", ZoneMovable, units.PagesPerBlock, 4*units.PagesPerBlock)
	if z.Blocks() != 4 {
		t.Fatalf("Blocks = %d", z.Blocks())
	}
	if z.Bytes() != 4*units.BlockSize {
		t.Fatalf("Bytes = %d", z.Bytes())
	}
	start, count := z.BlockRange(2)
	if start != 3*units.PagesPerBlock || count != units.PagesPerBlock {
		t.Fatalf("BlockRange(2) = %d,%d", start, count)
	}
	if z.BlockOf(start) != 2 {
		t.Fatalf("BlockOf = %d", z.BlockOf(start))
	}
	if !z.Contains(start) || z.Contains(0) {
		t.Fatal("Contains misbehaves")
	}
}

func TestUnalignedZonePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewZone("bad", ZoneMovable, 1, units.PagesPerBlock)
}

func TestOnlineOfflineAccounting(t *testing.T) {
	z := NewZone("m", ZoneMovable, 0, 2*units.PagesPerBlock)
	if z.NrOnline() != 0 || z.NrFree() != 0 {
		t.Fatal("fresh zone should be empty")
	}
	z.OnlineBlock(0)
	if z.NrOnline() != units.PagesPerBlock || z.NrFree() != units.PagesPerBlock {
		t.Fatalf("after online: online=%d free=%d", z.NrOnline(), z.NrFree())
	}
	if _, ok := z.AllocPage(0); !ok {
		t.Fatal("alloc from online block failed")
	}
	if z.NrAllocated() != 1 {
		t.Fatalf("NrAllocated = %d", z.NrAllocated())
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineEmptyBlock(t *testing.T) {
	z := newOnlineZone(t, 2)
	occupied := z.IsolateBlock(1)
	if occupied != 0 {
		t.Fatalf("occupied = %d in empty block", occupied)
	}
	z.FinishOffline(1)
	if z.BlockIsOnline(1) {
		t.Fatal("block still online")
	}
	if z.NrOnline() != units.PagesPerBlock {
		t.Fatalf("NrOnline = %d", z.NrOnline())
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolateReportsOccupied(t *testing.T) {
	z := newOnlineZone(t, 1)
	// Allocate 10 pages: they land in block 0.
	for i := 0; i < 10; i++ {
		if _, ok := z.AllocPage(0); !ok {
			t.Fatal("alloc failed")
		}
	}
	occupied := z.IsolateBlock(0)
	if occupied != 10 {
		t.Fatalf("occupied = %d, want 10", occupied)
	}
}

func TestFinishOfflineWithFreePagesPanics(t *testing.T) {
	z := newOnlineZone(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: block has free pages in allocator")
		}
	}()
	z.FinishOffline(0)
}

func TestUndoIsolate(t *testing.T) {
	z := newOnlineZone(t, 1)
	occ := z.IsolateBlock(0)
	if occ != 0 {
		t.Fatalf("occ = %d", occ)
	}
	if z.NrFree() != 0 {
		t.Fatalf("NrFree after isolate = %d", z.NrFree())
	}
	z.UndoIsolate(0, 0)
	if z.NrFree() != units.PagesPerBlock {
		t.Fatalf("NrFree after undo = %d", z.NrFree())
	}
	if err := z.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleOnlinePanics(t *testing.T) {
	z := newOnlineZone(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	z.OnlineBlock(0)
}

func TestAllocNeverReturnsOfflinePages(t *testing.T) {
	z := NewZone("m", ZoneMovable, 0, 4*units.PagesPerBlock)
	z.OnlineBlock(2) // only block 2 online
	start, count := z.BlockRange(2)
	for i := 0; i < 100; i++ {
		pfn, ok := z.AllocPage(0)
		if !ok {
			t.Fatal("alloc failed")
		}
		if pfn < start || pfn >= start+count {
			t.Fatalf("alloc returned pfn %d outside online block", pfn)
		}
	}
}

func TestOccupiedInBlock(t *testing.T) {
	z := newOnlineZone(t, 2)
	var pfns []PFN
	for i := 0; i < 7; i++ {
		p, _ := z.AllocPage(0)
		pfns = append(pfns, p)
	}
	total := z.OccupiedInBlock(0) + z.OccupiedInBlock(1)
	if total != 7 {
		t.Fatalf("occupied total = %d", total)
	}
	for _, p := range pfns {
		z.FreePage(p, 0)
	}
	if z.OccupiedInBlock(0)+z.OccupiedInBlock(1) != 0 {
		t.Fatal("occupancy not zero after frees")
	}
}

func TestOnlineBlocksList(t *testing.T) {
	z := NewZone("m", ZoneMovable, 0, 4*units.PagesPerBlock)
	z.OnlineBlock(3)
	z.OnlineBlock(1)
	got := z.OnlineBlocks()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("OnlineBlocks = %v", got)
	}
}

func TestZoneKindString(t *testing.T) {
	for k, want := range map[ZoneKind]string{
		ZoneNormal: "Normal", ZoneMovable: "Movable",
		ZoneSqueezyPrivate: "SqueezyPrivate", ZoneSqueezyShared: "SqueezyShared",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}

// Property: random alloc/free churn keeps zone accounting exact and a
// full drain allows offlining every block.
func TestZoneChurnProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		z := NewZone("m", ZoneMovable, 0, 2*units.PagesPerBlock)
		z.OnlineBlock(0)
		z.OnlineBlock(1)
		type alloc struct {
			pfn   PFN
			order int
		}
		var live []alloc
		for step := 0; step < 800; step++ {
			if len(live) > 0 && rng.IntN(5) < 2 {
				k := rng.IntN(len(live))
				z.FreePage(live[k].pfn, live[k].order)
				live = append(live[:k], live[k+1:]...)
			} else {
				order := rng.IntN(10)
				if pfn, ok := z.AllocPage(order); ok {
					live = append(live, alloc{pfn, order})
				}
			}
			var liveTotal int64
			for _, l := range live {
				liveTotal += 1 << l.order
			}
			if z.NrAllocated() != liveTotal {
				return false
			}
		}
		for _, l := range live {
			z.FreePage(l.pfn, l.order)
		}
		for i := 0; i < z.Blocks(); i++ {
			if occ := z.IsolateBlock(i); occ != 0 {
				return false
			}
			z.FinishOffline(i)
		}
		return z.NrOnline() == 0 && z.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
