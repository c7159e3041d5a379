package guestos

import (
	"math/rand/v2"
	"testing"

	"squeezy/internal/bitmap"
	"squeezy/internal/costmodel"
	"squeezy/internal/hostmem"
	"squeezy/internal/mem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

func newTestKernel(t *testing.T, movableBlocks int) *Kernel {
	t.Helper()
	s := sim.NewScheduler()
	host := hostmem.New(0)
	vm := vmm.New("vm0", s, costmodel.Default(), host, 4)
	k := NewKernel(vm, Config{
		BootBytes:           units.BlockSize,
		MovableBytes:        int64(movableBlocks) * units.BlockSize,
		KernelResidentBytes: 16 * units.MiB,
	})
	k.OnlineAllMovable()
	return k
}

func TestBootFootprint(t *testing.T) {
	k := newTestKernel(t, 2)
	wantKernel := units.BytesToPages(16 * units.MiB)
	if got := k.Normal.NrAllocated(); got != wantKernel {
		t.Fatalf("kernel resident = %d pages, want %d", got, wantKernel)
	}
	if got := k.VM.PopulatedPages(); got != wantKernel {
		t.Fatalf("host populated = %d, want %d", got, wantKernel)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTouchAnonAllocatesAndPopulates(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	work, ok := k.TouchAnon(p, 64*units.MiB, HugeOrder)
	if !ok {
		t.Fatal("TouchAnon failed")
	}
	pages := units.BytesToPages(64 * units.MiB)
	if p.AnonPages() != pages {
		t.Fatalf("anon = %d, want %d", p.AnonPages(), pages)
	}
	if k.Movable.NrAllocated() != pages {
		t.Fatalf("movable allocated = %d", k.Movable.NrAllocated())
	}
	wantWork := sim.Duration(pages)*(k.Cost.GuestFaultPerPage+k.Cost.ZeroPerPage) +
		sim.Duration(pages)*k.Cost.NestedFaultPerPage
	if work != wantWork {
		t.Fatalf("work = %v, want %v", work, wantWork)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatTouchDoesNotRepopulate(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	k.TouchAnon(p, 32*units.MiB, HugeOrder)
	popBefore := k.VM.PopulatedPages()
	k.FreeAnon(p, 32*units.MiB)
	// Re-touch: guest pages are reused; host frames were never released,
	// so no new population.
	work2, _ := k.TouchAnon(p, 32*units.MiB, HugeOrder)
	if k.VM.PopulatedPages() != popBefore {
		t.Fatalf("populated changed: %d -> %d", popBefore, k.VM.PopulatedPages())
	}
	pages := units.BytesToPages(32 * units.MiB)
	want := sim.Duration(pages) * (k.Cost.GuestFaultPerPage + k.Cost.ZeroPerPage)
	if work2 != want {
		t.Fatalf("re-touch work = %v, want %v (no nested faults)", work2, want)
	}
}

func TestExitFreesAnon(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	k.TouchAnon(p, 100*units.MiB, HugeOrder)
	before := k.Movable.NrAllocated()
	freed := k.Exit(p)
	if freed != units.BytesToPages(100*units.MiB) {
		t.Fatalf("freed = %d", freed)
	}
	if k.Movable.NrAllocated() != before-freed {
		t.Fatalf("movable allocated = %d", k.Movable.NrAllocated())
	}
	if !p.Exited() || k.NumProcs() != 1 { // kernel proc remains
		t.Fatal("exit bookkeeping wrong")
	}
	// Host frames remain populated (the Figure 1 pathology).
	if k.VM.PopulatedPages() == 0 {
		t.Fatal("host frames should stay populated after guest free")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleExitPanics(t *testing.T) {
	k := newTestKernel(t, 1)
	p := k.Spawn("x")
	k.Exit(p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.Exit(p)
}

func TestOOMOnZoneExhaustion(t *testing.T) {
	k := newTestKernel(t, 1) // 128 MiB movable
	p := k.Spawn("hog")
	_, ok := k.TouchAnon(p, 256*units.MiB, HugeOrder)
	if ok {
		t.Fatal("TouchAnon should fail when zone exhausted")
	}
	// Partial allocation is retained and freed on exit.
	if p.AnonPages() == 0 {
		t.Fatal("partial allocation lost")
	}
	k.Exit(p)
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("exit did not free partial allocation")
	}
}

func TestAssignedZoneConfinesAnon(t *testing.T) {
	k := newTestKernel(t, 2)
	part := k.AddZone("squeezy0", mem.ZoneSqueezyPrivate, 2*units.BlockSize)
	k.VM.Commit(2 * units.PagesPerBlock)
	part.OnlineBlock(0)
	part.OnlineBlock(1)
	p := k.Spawn("f1")
	p.AssignedZone = part
	k.TouchAnon(p, 64*units.MiB, HugeOrder)
	if part.NrAllocated() != units.BytesToPages(64*units.MiB) {
		t.Fatalf("partition allocated = %d", part.NrAllocated())
	}
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("anon leaked into movable zone")
	}
}

func TestPartitionOverflowOOM(t *testing.T) {
	k := newTestKernel(t, 4)
	part := k.AddZone("squeezy0", mem.ZoneSqueezyPrivate, units.BlockSize)
	k.VM.Commit(units.PagesPerBlock)
	part.OnlineBlock(0)
	p := k.Spawn("f1")
	p.AssignedZone = part
	_, ok := k.TouchAnon(p, 256*units.MiB, HugeOrder)
	if ok {
		t.Fatal("partition overflow should fail (OOM-kill trigger)")
	}
	// Movable zone untouched: the overflow never spills out of the
	// partition (isolation invariant).
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("partition overflow spilled into movable")
	}
}

func TestFileSharingAcrossProcesses(t *testing.T) {
	k := newTestKernel(t, 2)
	f := k.File("rootfs", 64*units.MiB)
	p1 := k.Spawn("f1")
	p2 := k.Spawn("f2")
	w1, ok := k.TouchFile(p1, f, 64*units.MiB)
	if !ok {
		t.Fatal("first TouchFile failed")
	}
	allocAfterFirst := k.Movable.NrAllocated()
	w2, ok := k.TouchFile(p2, f, 64*units.MiB)
	if !ok {
		t.Fatal("second TouchFile failed")
	}
	if k.Movable.NrAllocated() != allocAfterFirst {
		t.Fatal("second mapper allocated new pages; cache not shared")
	}
	if w2 >= w1 {
		t.Fatalf("warm map (%v) should be cheaper than cold (%v)", w2, w1)
	}
	if f.MapCount() != 2 {
		t.Fatalf("mapcount = %d", f.MapCount())
	}
	k.Exit(p1)
	if f.MapCount() != 1 {
		t.Fatalf("mapcount after exit = %d", f.MapCount())
	}
	if f.ResidentPages() != units.BytesToPages(64*units.MiB) {
		t.Fatal("exit evicted cached file pages")
	}
}

func TestFileZoneFollowsSharedZone(t *testing.T) {
	k := newTestKernel(t, 2)
	shared := k.AddZone("squeezy-shared", mem.ZoneSqueezyShared, units.BlockSize)
	k.VM.Commit(units.PagesPerBlock)
	shared.OnlineBlock(0)
	k.SharedZone = shared
	f := k.File("libs", 32*units.MiB)
	p := k.Spawn("f1")
	k.TouchFile(p, f, 32*units.MiB)
	if shared.NrAllocated() != units.BytesToPages(32*units.MiB) {
		t.Fatalf("shared partition allocated = %d", shared.NrAllocated())
	}
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("file pages leaked into movable")
	}
}

func TestForkInheritsZoneAndHooks(t *testing.T) {
	k := newTestKernel(t, 2)
	var forked, exited bool
	k.OnProcFork = func(parent, child *Process) { forked = true }
	k.OnProcExit = func(p *Process) { exited = true }
	part := k.AddZone("sq0", mem.ZoneSqueezyPrivate, units.BlockSize)
	k.VM.Commit(units.PagesPerBlock)
	part.OnlineBlock(0)
	p := k.Spawn("f1")
	p.AssignedZone = part
	c := k.Fork(p, "f1-child")
	if !forked {
		t.Fatal("fork hook not called")
	}
	if c.AssignedZone != part {
		t.Fatal("child did not inherit partition")
	}
	k.Exit(c)
	if !exited {
		t.Fatal("exit hook not called")
	}
}

func TestChunksInRangeAndMigration(t *testing.T) {
	k := newTestKernel(t, 4)
	p := k.Spawn("f1")
	k.TouchAnon(p, 200*units.MiB, HugeOrder)
	// Find a block holding some of the chunks (buddy LIFO fills the
	// highest-onlined block first).
	blk := -1
	for i := 0; i < k.Movable.Blocks(); i++ {
		if k.Movable.OccupiedInBlock(i) > 0 {
			blk = i
			break
		}
	}
	if blk < 0 {
		t.Fatal("no occupied block after touch")
	}
	start, count := k.Movable.BlockRange(blk)
	chunks := k.ChunksInRange(start, count)
	if len(chunks) == 0 {
		t.Fatal("no chunks found in touched block")
	}
	// Isolate the block, then migrate its chunks out.
	occupied := k.Movable.IsolateBlock(blk)
	var migrated int64
	for _, c := range chunks {
		pages, _, ok := k.MigrateChunk(c)
		if !ok {
			t.Fatal("migration failed with free memory available")
		}
		migrated += pages
		if c.PFN >= start && c.PFN < start+count {
			t.Fatal("chunk migrated into the isolated block")
		}
	}
	if migrated != occupied {
		t.Fatalf("migrated %d, isolate reported %d occupied", migrated, occupied)
	}
	k.Movable.FinishOffline(blk)
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Process still owns the same number of pages.
	if p.AnonPages() != units.BytesToPages(200*units.MiB) {
		t.Fatalf("anon pages changed across migration: %d", p.AnonPages())
	}
}

func TestMigrationFailsWhenNoTarget(t *testing.T) {
	k := newTestKernel(t, 1)
	p := k.Spawn("f1")
	// Fill the single movable block completely.
	if _, ok := k.TouchAnon(p, units.BlockSize, HugeOrder); !ok {
		t.Fatal("fill failed")
	}
	start, count := k.Movable.BlockRange(0)
	chunks := k.ChunksInRange(start, count)
	k.Movable.IsolateBlock(0)
	_, _, ok := k.MigrateChunk(chunks[0])
	if ok {
		t.Fatal("migration should fail with no free target")
	}
}

func TestReleaseRange(t *testing.T) {
	k := newTestKernel(t, 2)
	p := k.Spawn("f1")
	k.TouchAnon(p, 128*units.MiB, HugeOrder)
	k.Exit(p)
	popBefore := k.VM.PopulatedPages()
	blk := -1
	for i := 0; i < k.Movable.Blocks(); i++ {
		start, count := k.Movable.BlockRange(i)
		if k.PopulatedInRange(start, count) > 0 {
			blk = i
			break
		}
	}
	if blk < 0 {
		t.Fatal("no populated block")
	}
	start, count := k.Movable.BlockRange(blk)
	inBlock := k.PopulatedInRange(start, count)
	if inBlock == 0 {
		t.Fatal("no populated pages in block 0")
	}
	released := k.ReleaseRange(start, count)
	if released != inBlock {
		t.Fatalf("released %d, populated was %d", released, inBlock)
	}
	if k.VM.PopulatedPages() != popBefore-released {
		t.Fatal("host populated accounting wrong")
	}
	// Double release is a no-op.
	if again := k.ReleaseRange(start, count); again != 0 {
		t.Fatalf("second release freed %d", again)
	}
}

func TestAllocatedPagesAccounting(t *testing.T) {
	k := newTestKernel(t, 2)
	base := k.AllocatedPages()
	p := k.Spawn("f1")
	k.TouchAnon(p, 10*units.MiB, 0)
	if k.AllocatedPages() != base+units.BytesToPages(10*units.MiB) {
		t.Fatal("AllocatedPages did not track touch")
	}
}

func TestOrderFallbackUnderFragmentation(t *testing.T) {
	k := newTestKernel(t, 1)
	// Fragment the zone: fill with 4 KiB pages, free every other one.
	p := k.Spawn("frag")
	if _, ok := k.TouchAnon(p, units.BlockSize, 0); !ok {
		t.Fatal("fill failed")
	}
	// Free half the chunks (newest-first ordering makes them single pages).
	k.FreeAnon(p, units.BlockSize/2)
	// A huge-order touch must fall back to order 0 and still succeed.
	q := k.Spawn("thp")
	if _, ok := k.TouchAnon(q, 16*units.MiB, HugeOrder); !ok {
		t.Fatal("fallback allocation failed")
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDropFile(t *testing.T) {
	k := newTestKernel(t, 2)
	f := k.File("tmp", units.MiB)
	p := k.Spawn("f1")
	k.TouchFile(p, f, units.MiB)
	k.Exit(p)
	k.DropFile(f)
	if k.Movable.NrAllocated() != 0 {
		t.Fatal("DropFile left pages allocated")
	}
}

func TestDropMappedFilePanics(t *testing.T) {
	k := newTestKernel(t, 2)
	f := k.File("tmp", units.MiB)
	p := k.Spawn("f1")
	k.TouchFile(p, f, units.MiB)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k.DropFile(f)
}

// The bulk bitset range operations must agree bit-for-bit with a
// straightforward per-bit reference across random ranges — these back
// markPopulated / PopulatedInRange / ReleaseRange. Ranges straddle
// words and hotplug blocks, and the last block is never populated, so
// clears and counts also run over blocks that have no words.
func TestBitsetRangeOpsMatchReference(t *testing.T) {
	const blocks = 4
	const span = blocks * units.PagesPerBlock
	b := bitset{blocks: make([]bitmap.Bitmap, blocks)}
	ref := make([]bool, span)
	rng := rand.New(rand.NewPCG(11, 13))
	for step := 0; step < 3000; step++ {
		// Centre most ranges on a block boundary, and let a few cover
		// whole blocks.
		start := int64(rng.IntN(blocks+1))*units.PagesPerBlock + int64(rng.IntN(512)) - 256
		n := int64(rng.IntN(512))
		if rng.IntN(10) == 0 {
			n = rng.Int64N(2 * units.PagesPerBlock)
		}
		start = min(max(start, 0), span)
		n = min(n, span-start)
		op := rng.IntN(3)
		if op == 0 {
			// Setting a bit in the last block would populate it.
			n = min(n, max(0, (blocks-1)*units.PagesPerBlock-start))
		}
		// Set counts the clear bits it sets; clear and count count
		// the set ones.
		var want int64
		for i := start; i < start+n; i++ {
			if ref[i] != (op == 0) {
				want++
			}
			if op != 2 {
				ref[i] = op == 0
			}
		}
		var got int64
		switch op {
		case 0:
			got = b.setRange(start, n)
		case 1:
			got = b.clearRange(start, n)
		case 2:
			got = b.countRange(start, n)
		}
		if got != want {
			t.Fatalf("step %d: op %d over [%d,+%d) = %d, want %d", step, op, start, n, got, want)
		}
	}
	if b.blocks[blocks-1] != nil {
		t.Fatal("clears and counts populated the untouched block")
	}
	for i := 0; i < blocks-1; i++ {
		if b.blocks[i] == nil {
			t.Fatalf("block %d was never set", i)
		}
	}
}

// markPopulated must report exactly the newly backed pages when ranges
// overlap — the bulk-update equivalent of the old page-at-a-time loop.
func TestMarkPopulatedBulkCounting(t *testing.T) {
	k := newTestKernel(t, 4)
	base := k.Movable.Start()
	if fresh := k.markPopulated(base, 1000); fresh != 1000 {
		t.Fatalf("first touch fresh = %d, want 1000", fresh)
	}
	if fresh := k.markPopulated(base+500, 1000); fresh != 500 {
		t.Fatalf("overlapping touch fresh = %d, want 500", fresh)
	}
	if got := k.PopulatedInRange(base, 2000); got != 1500 {
		t.Fatalf("PopulatedInRange = %d, want 1500", got)
	}
	if released := k.populated.clearRange(base, 2000); released != 1500 {
		t.Fatalf("clearRange = %d, want 1500", released)
	}
}
