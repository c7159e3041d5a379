package guestos

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"squeezy/internal/costmodel"
	"squeezy/internal/hostmem"
	"squeezy/internal/mem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// FreeAnonRandom releases bytes of p's anonymous memory, choosing
// victim chunks uniformly at random (one rng.IntN(len) swap-remove
// draw per chunk). It is the object-based half of scrambleRef.
func (k *Kernel) FreeAnonRandom(p *Process, bytes int64, rng *rand.Rand) int64 {
	target := units.BytesToPages(bytes)
	var freed int64
	for freed < target && len(p.anonChunks) > 0 {
		i := rng.IntN(len(p.anonChunks))
		c := p.anonChunks[i]
		last := len(p.anonChunks) - 1
		p.anonChunks[i] = p.anonChunks[last]
		p.anonChunks = p.anonChunks[:last]
		k.delOwner(c)
		c.Zone.FreePage(c.PFN, c.Order)
		p.anonPages -= c.Pages()
		freed += c.Pages()
	}
	return freed
}

// scrambleRef is the reference model of ScrambleFreeLists: a real
// process reserves the zone's whole free span as Chunks, frees them in
// random order and exits.
func scrambleRef(k *Kernel, z *mem.Zone, rng *rand.Rand) {
	p := k.Spawn("scrambler")
	p.AssignedZone = z
	k.AllocReserved(p, z.NrFree())
	k.FreeAnonRandom(p, units.PagesToBytes(p.anonPages), rng)
	k.Exit(p)
}

// occupy drives a random allocation history into k (anonymous faults
// at both orders, partial and random frees, file pages, exits), so the
// free lists a scramble starts from are fragmented and history
// dependent. The same seed yields the same history on a twin kernel.
func occupy(k *Kernel, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5c))
	var procs []*Process
	f := k.File("lib", 0)
	for step := 0; step < 40; step++ {
		if len(procs) == 0 || rng.IntN(4) == 0 {
			procs = append(procs, k.Spawn("p"))
		}
		i := rng.IntN(len(procs))
		p := procs[i]
		switch rng.IntN(6) {
		case 0:
			k.TouchAnon(p, int64(rng.IntN(64)+1)*units.MiB, HugeOrder)
		case 1:
			k.TouchAnon(p, int64(rng.IntN(512)+1)*units.PageSize, 0)
		case 2:
			k.FreeAnon(p, int64(rng.IntN(32)+1)*units.MiB)
		case 3:
			k.FreeAnonRandom(p, int64(rng.IntN(32)+1)*units.MiB, rng)
		case 4:
			k.TouchFile(p, f, int64(rng.IntN(24)+1)*units.MiB)
		case 5:
			k.Exit(p)
			procs = append(procs[:i], procs[i+1:]...)
		}
	}
}

// TestScrambleMatchesReference runs the object-based reference scramble
// and ScrambleFreeLists on twin kernels with the same random occupancy
// and scramble seed. Both must leave the same free chunk at every PFN,
// the same buddy stack order (pinned by a full order-0 drain), the
// same rng position and the same next PID, and fire the same exit hook.
func TestScrambleMatchesReference(t *testing.T) {
	type run struct {
		free  []int
		drain []mem.PFN
		next  uint64
		pid   int
		exits []int
	}
	replay := func(seed uint64, movableBlocks int, normal bool, scramble func(*Kernel, *mem.Zone, *rand.Rand)) (r run) {
		s := sim.NewScheduler()
		vm := vmm.New("vm", s, costmodel.Default(), hostmem.New(0), 4)
		k := NewKernel(vm, Config{
			BootBytes:           units.BlockSize,
			MovableBytes:        int64(movableBlocks) * units.BlockSize,
			KernelResidentBytes: 16 * units.MiB,
		})
		k.OnlineAllMovable()
		k.OnProcExit = func(p *Process) { r.exits = append(r.exits, p.PID, int(p.AnonPages())) }
		occupy(k, seed)
		z := k.Movable
		if normal {
			z = k.Normal
		}
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		scramble(k, z, rng)
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for pfn := z.Start(); pfn < z.Start()+z.Pages(); pfn++ {
			if o, ok := z.FreeChunkAt(pfn); ok {
				r.free = append(r.free, int(pfn), o)
			}
		}
		for {
			pfn, ok := z.AllocPage(0)
			if !ok {
				break
			}
			r.drain = append(r.drain, pfn)
		}
		r.next = rng.Uint64()
		r.pid = k.Spawn("next").PID
		return r
	}
	f := func(seed uint64, blocks uint8, normal bool) bool {
		nb := int(blocks%4) + 1
		want := replay(seed, nb, normal, scrambleRef)
		got := replay(seed, nb, normal, (*Kernel).ScrambleFreeLists)
		switch {
		case !slices.Equal(got.free, want.free):
			t.Logf("seed %d: free chunks differ (%d vs %d)", seed, len(got.free)/2, len(want.free)/2)
		case !slices.Equal(got.drain, want.drain):
			t.Logf("seed %d: order-0 drain sequences differ", seed)
		case got.next != want.next || got.pid != want.pid:
			t.Logf("seed %d: next rng %d pid %d, want %d pid %d", seed, got.next, got.pid, want.next, want.pid)
		case !slices.Equal(got.exits, want.exits):
			t.Logf("seed %d: exit hooks %v, want %v", seed, got.exits, want.exits)
		default:
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ScrambleFreeLists must not allocate a Chunk, or anything else, once
// the kernel's extent buffer has grown to the zone's free span.
func TestScrambleAllocationFree(t *testing.T) {
	k := newTestKernel(t, 4)
	p := k.Spawn("p")
	k.TouchAnon(p, 100*units.MiB, 0)
	k.FreeAnon(p, 40*units.MiB)
	rng := rand.New(rand.NewPCG(1, 2))
	k.ScrambleFreeLists(k.Movable, rng) // grow the extent buffer
	// The buddy stacks may still grow while the layout settles, so
	// measure after a few warm-up rounds.
	for i := 0; i < 3; i++ {
		k.ScrambleFreeLists(k.Movable, rng)
	}
	allocs := testing.AllocsPerRun(5, func() { k.ScrambleFreeLists(k.Movable, rng) })
	// Spawn allocates the scrambler's Process; nothing else may.
	if allocs > 1 {
		t.Fatalf("ScrambleFreeLists allocates %.0f objects per call, want at most 1 (the Process)", allocs)
	}
}

// popGreedy, shared by AllocReserved and ScrambleFreeLists, reserves
// HugeOrder chunks, then the largest power of two that fits the
// remainder, and falls back to smaller orders under fragmentation.
func TestAllocReservedGreedyOrders(t *testing.T) {
	orders := func(cs []*Chunk) []int {
		var out []int
		for _, c := range cs {
			out = append(out, c.Order)
		}
		return out
	}
	k := newTestKernel(t, 1)
	chunks, got := k.AllocReserved(k.Spawn("balloon"), 3<<HugeOrder+256+3)
	if want := []int{9, 9, 9, 8, 1, 0}; got != 3<<HugeOrder+259 || !slices.Equal(orders(chunks), want) {
		t.Fatalf("reserved %d pages as orders %v, want %d as %v", got, orders(chunks), 3<<HugeOrder+259, want)
	}

	// Leave only isolated free pages: every request falls back to 0.
	k = newTestKernel(t, 1)
	z := k.Movable
	var held []mem.PFN
	for {
		pfn, ok := z.AllocPage(0)
		if !ok {
			break
		}
		held = append(held, pfn)
	}
	for _, pfn := range held {
		if pfn%2 == 0 {
			z.FreePage(pfn, 0)
		}
	}
	chunks, got = k.AllocReserved(k.Spawn("balloon"), 1000)
	if got != 1000 || len(chunks) != 1000 || slices.Max(orders(chunks)) != 0 {
		t.Fatalf("fragmented zone: reserved %d pages in %d chunks (max order %d), want 1000 order-0 chunks", got, len(chunks), slices.Max(orders(chunks)))
	}
}
