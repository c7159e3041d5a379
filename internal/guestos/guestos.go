package guestos

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"

	"squeezy/internal/costmodel"
	"squeezy/internal/mem"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/vmm"
)

// HugeOrder is the allocation order of a 2 MiB THP chunk.
const HugeOrder = 9

// Chunk is one allocated physical extent (2^Order pages) and its owner:
// either a process's anonymous memory or a cached file's pages. The
// per-block reverse map (Kernel.chunksIn) indexes chunks by hotplug
// block so the offline path can find and migrate them.
type Chunk struct {
	PFN   mem.PFN
	Order int
	Zone  *mem.Zone
	Proc  *Process    // nil for page-cache chunks
	File  *CachedFile // nil for anonymous chunks
}

// Pages returns the chunk size in pages.
func (c *Chunk) Pages() int64 { return 1 << c.Order }

// Process is a guest process (a function instance's container, or the
// in-guest agent).
type Process struct {
	PID  int
	Name string

	// AssignedZone, when non-nil, confines the process's anonymous
	// allocations to one zone — Squeezy's partition assignment. Nil
	// processes allocate from ZONE_MOVABLE like vanilla Linux.
	AssignedZone *mem.Zone

	anonChunks []*Chunk
	anonPages  int64
	mappedFile map[*CachedFile]int64 // pages of each file this process mapped
	exited     bool
}

// AnonPages returns the process's resident anonymous pages.
func (p *Process) AnonPages() int64 { return p.anonPages }

// Exited reports whether the process has exited.
func (p *Process) Exited() bool { return p.exited }

// CachedFile is a file resident in the guest page cache, shared across
// every process that maps it (container rootfs, runtime libraries).
type CachedFile struct {
	Name string
	Zone *mem.Zone // where its pages live

	chunks        []*Chunk
	residentPages int64
	mapCount      int
}

// ResidentPages returns the file's pages currently in the page cache.
func (f *CachedFile) ResidentPages() int64 { return f.residentPages }

// MapCount returns how many processes currently map the file.
func (f *CachedFile) MapCount() int { return f.mapCount }

// Kernel is the guest OS memory manager of one VM.
type Kernel struct {
	Sched *sim.Scheduler
	Cost  *costmodel.Model
	VM    *vmm.VM

	// Normal is the boot memory zone (kernel text/data, the agent);
	// never hot-unpluggable.
	Normal *mem.Zone
	// Movable is ZONE_MOVABLE: user pages and page cache on the
	// vanilla path; hotplugged memory lands here.
	Movable *mem.Zone
	// SharedZone, when non-nil, receives file-backed pages instead of
	// Movable — Squeezy's shared partition.
	SharedZone *mem.Zone

	// OnProcExit and OnProcFork let the Squeezy manager observe
	// process lifecycle (partition refcounting) without a dependency
	// cycle.
	OnProcExit func(*Process)
	OnProcFork func(parent, child *Process)

	zones   []*mem.Zone
	nextPFN mem.PFN

	nextPID int
	procs   map[int]*Process
	// chunksIn is the reverse map: allocated chunks indexed by hotplug
	// block (PFN / PagesPerBlock), so the offline path's range queries
	// walk the handful of chunks in a block instead of probing a map
	// once per page frame. Chunks are naturally aligned and at most
	// 2^MaxOrder pages, so no chunk straddles a block boundary.
	chunksIn []map[*Chunk]struct{}
	files    map[string]*CachedFile

	populated bitset // per-PFN: guest page backed by a host frame

	recycle *Recycler // nil unless the kernel was built through one
}

// Recycler caches the flat storage a guest kernel allocates — zone
// structs with their buddy ord spans and region counters, the
// populated bitmap's word array, and the per-block reverse-map buckets
// — so a worker simulating many worlds in sequence reuses one arena
// set instead of reconstructing it per run. Pass it via Config.Recycle
// and hand a dead kernel's storage back with Kernel.Release.
//
// It is the simulator's one cross-run pool, kept because it is
// measured to pay: building these arenas fresh per cell doubles the
// bytes a sweep allocates. Everything else a cell builds is fresh.
//
// Reused storage is always reset to its freshly-constructed state
// before it is handed out (mem.Zone.Reset, a zero-length bitmap, a
// cleared bucket), so a kernel built from recycled arenas behaves
// identically to one built from fresh ones. A Recycler is not safe for
// concurrent use: each worker owns its own.
type Recycler struct {
	zones []*mem.Zone
	words [][]uint64
	rmaps []map[*Chunk]struct{}
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler { return &Recycler{} }

// zone hands out a retired zone Reset to the requested identity, or a
// fresh one when none is spare. A nil recycler constructs fresh zones.
func (r *Recycler) zone(name string, kind mem.ZoneKind, start mem.PFN, npages int64) *mem.Zone {
	if r == nil || len(r.zones) == 0 {
		return mem.NewZone(name, kind, start, npages)
	}
	z := r.zones[len(r.zones)-1]
	r.zones = r.zones[:len(r.zones)-1]
	z.Reset(name, kind, start, npages)
	return z
}

// takeWords hands out a recycled bitmap backing (length zero — the
// bitset appends explicit zero words, so stale content is harmless).
func (r *Recycler) takeWords() []uint64 {
	if r == nil || len(r.words) == 0 {
		return nil
	}
	w := r.words[len(r.words)-1]
	r.words = r.words[:len(r.words)-1]
	return w[:0]
}

// takeRmap hands out a cleared reverse-map bucket. Retired buckets are
// cleared here, on reuse, not at Release time: a released kernel whose
// buckets are never needed again (the last cell of a worker's run)
// then pays nothing for them.
func (r *Recycler) takeRmap() map[*Chunk]struct{} {
	if r == nil || len(r.rmaps) == 0 {
		return make(map[*Chunk]struct{})
	}
	m := r.rmaps[len(r.rmaps)-1]
	r.rmaps = r.rmaps[:len(r.rmaps)-1]
	clear(m)
	return m
}

// Release retires the kernel's arena storage into the recycler it was
// built with (a no-op for kernels built without one, or already
// released). The kernel must not be used afterwards: its zones,
// bitmap, and reverse map now belong to the recycler and will back
// future kernels.
func (k *Kernel) Release() {
	r := k.recycle
	if r == nil {
		return
	}
	r.zones = append(r.zones, k.zones...)
	k.zones = nil
	k.Normal, k.Movable, k.SharedZone = nil, nil, nil
	if k.populated.words != nil {
		r.words = append(r.words, k.populated.words)
		k.populated.words = nil
	}
	for i, m := range k.chunksIn {
		if m != nil {
			r.rmaps = append(r.rmaps, m) // cleared lazily by takeRmap
			k.chunksIn[i] = nil
		}
	}
	k.chunksIn = nil
	k.recycle = nil
}

// Config sizes a guest kernel.
type Config struct {
	// BootBytes is the Normal-zone span (block-aligned, fully online at
	// boot).
	BootBytes int64
	// MovableBytes is the ZONE_MOVABLE span. Blocks start offline; a
	// hotplug driver onlines them, or OnlineAllMovable does for
	// statically sized VMs.
	MovableBytes int64
	// KernelResidentBytes is the boot footprint of the guest kernel and
	// agent, allocated from Normal and populated in the host.
	KernelResidentBytes int64
	// Recycle, when non-nil, supplies recycled arena storage (zone
	// structs, buddy ord spans, bitmap words, reverse-map buckets)
	// harvested from kernels a previous simulation released.
	Recycle *Recycler
}

// NewKernel boots a guest kernel inside vm. The VM must have enough
// host commit budget for the boot memory (BootBytes is committed here;
// movable memory is committed as it is plugged).
func NewKernel(vm *vmm.VM, cfg Config) *Kernel {
	if cfg.BootBytes <= 0 {
		panic("guestos: BootBytes must be positive")
	}
	bootBytes := units.AlignUp(cfg.BootBytes, units.BlockSize)
	movBytes := units.AlignUp(cfg.MovableBytes, units.BlockSize)
	k := &Kernel{
		Sched:   vm.Sched,
		Cost:    vm.Cost,
		VM:      vm,
		procs:   make(map[int]*Process),
		files:   make(map[string]*CachedFile),
		nextPID: 1,
		recycle: cfg.Recycle,
	}
	k.populated.words = cfg.Recycle.takeWords()
	k.Normal = k.addZone("Normal", mem.ZoneNormal, bootBytes)
	for i := 0; i < k.Normal.Blocks(); i++ {
		k.Normal.OnlineBlock(i)
	}
	if !vm.Commit(units.BytesToPages(bootBytes)) {
		panic(fmt.Sprintf("guestos: host cannot back boot memory of %s", vm.Name))
	}
	if movBytes > 0 {
		k.Movable = k.addZone("Movable", mem.ZoneMovable, movBytes)
	}
	if cfg.KernelResidentBytes > 0 {
		kp := k.Spawn("kernel")
		kp.AssignedZone = k.Normal // kernel allocations are non-movable
		if _, ok := k.TouchAnon(kp, cfg.KernelResidentBytes, HugeOrder); !ok {
			panic("guestos: boot memory too small for kernel footprint")
		}
	}
	return k
}

// addZone appends a zone of the given byte span to the guest physical
// address space.
func (k *Kernel) addZone(name string, kind mem.ZoneKind, bytes int64) *mem.Zone {
	pages := units.BytesToPages(units.AlignUp(bytes, units.BlockSize))
	z := k.recycle.zone(name, kind, k.nextPFN, pages)
	k.nextPFN += pages
	k.zones = append(k.zones, z)
	k.populated.grow(k.nextPFN)
	for int64(len(k.chunksIn)) < k.nextPFN/units.PagesPerBlock {
		k.chunksIn = append(k.chunksIn, nil)
	}
	return z
}

// addOwner registers a chunk in the per-block reverse map.
func (k *Kernel) addOwner(c *Chunk) {
	b := c.PFN / units.PagesPerBlock
	m := k.chunksIn[b]
	if m == nil {
		m = k.recycle.takeRmap()
		k.chunksIn[b] = m
	}
	m[c] = struct{}{}
}

// delOwner removes a chunk from the per-block reverse map.
func (k *Kernel) delOwner(c *Chunk) {
	delete(k.chunksIn[c.PFN/units.PagesPerBlock], c)
}

// AddZone registers an extra zone (a Squeezy partition) spanning bytes.
// Its blocks start offline.
func (k *Kernel) AddZone(name string, kind mem.ZoneKind, bytes int64) *mem.Zone {
	return k.addZone(name, kind, bytes)
}

// Zones returns all registered zones in address order.
func (k *Kernel) Zones() []*mem.Zone { return k.zones }

// OnlineAllMovable onlines every movable block, modelling a statically
// sized (non-hotplug) VM. The host commit for the whole span must
// succeed.
func (k *Kernel) OnlineAllMovable() {
	if k.Movable == nil {
		return
	}
	for i := 0; i < k.Movable.Blocks(); i++ {
		if !k.Movable.BlockIsOnline(i) {
			if !k.VM.Commit(units.PagesPerBlock) {
				panic("guestos: host cannot back static movable memory")
			}
			k.Movable.OnlineBlock(i)
		}
	}
}

// --- process lifecycle ---

// Spawn creates a process.
func (k *Kernel) Spawn(name string) *Process {
	p := &Process{
		PID:        k.nextPID,
		Name:       name,
		mappedFile: make(map[*CachedFile]int64),
	}
	k.nextPID++
	k.procs[p.PID] = p
	return p
}

// Fork creates a child process inheriting the parent's zone assignment
// (Squeezy co-locates a fork's memory in the parent's partition).
func (k *Kernel) Fork(parent *Process, name string) *Process {
	if parent.exited {
		panic("guestos: fork from exited process")
	}
	child := k.Spawn(name)
	child.AssignedZone = parent.AssignedZone
	if k.OnProcFork != nil {
		k.OnProcFork(parent, child)
	}
	return child
}

// Exit terminates a process: all anonymous chunks return to their
// zones, file map counts drop (pages stay cached), and the exit hook
// fires. It returns the number of anonymous pages freed.
func (k *Kernel) Exit(p *Process) int64 {
	if p.exited {
		panic(fmt.Sprintf("guestos: double exit of pid %d", p.PID))
	}
	freed := p.anonPages
	for _, c := range p.anonChunks {
		k.delOwner(c)
		c.Zone.FreePage(c.PFN, c.Order)
	}
	p.anonChunks = nil
	p.anonPages = 0
	for f, pages := range p.mappedFile {
		f.mapCount--
		_ = pages
	}
	p.mappedFile = make(map[*CachedFile]int64)
	p.exited = true
	delete(k.procs, p.PID)
	if k.OnProcExit != nil {
		k.OnProcExit(p)
	}
	return freed
}

// NumProcs returns the number of live processes.
func (k *Kernel) NumProcs() int { return len(k.procs) }

// --- memory touch paths ---

// anonZone returns the zone backing p's anonymous faults.
func (k *Kernel) anonZone(p *Process) *mem.Zone {
	if p.AssignedZone != nil {
		return p.AssignedZone
	}
	if k.Movable == nil {
		return k.Normal
	}
	return k.Movable
}

// fileZone returns the zone backing page-cache pages.
func (k *Kernel) fileZone() *mem.Zone {
	if k.SharedZone != nil {
		return k.SharedZone
	}
	if k.Movable == nil {
		return k.Normal
	}
	return k.Movable
}

// TouchAnon lazily faults bytes of fresh anonymous memory into p at the
// given allocation order (HugeOrder for THP-backed workloads, 0 for 4
// KiB). It returns the guest CPU work consumed by fault handling,
// zeroing, and nested EPT faults. ok is false when the backing zone ran
// out of memory — the caller decides between OOM-killing (Squeezy
// partition overflow) and failing the allocation; any partially
// allocated chunks remain with the process and are released on Exit.
func (k *Kernel) TouchAnon(p *Process, bytes int64, order int) (work sim.Duration, ok bool) {
	if p.exited {
		panic(fmt.Sprintf("guestos: touch on exited pid %d", p.PID))
	}
	zone := k.anonZone(p)
	npages := units.BytesToPages(bytes)
	var allocated, fresh int64
	for allocated < npages {
		o := order
		pfn, got := zone.AllocPage(o)
		for !got && o > 0 {
			// Fall back to smaller orders under fragmentation, as the
			// THP fault path does.
			o--
			pfn, got = zone.AllocPage(o)
		}
		if !got {
			work += k.anonWork(allocated, fresh)
			return work, false
		}
		c := &Chunk{PFN: pfn, Order: o, Zone: zone, Proc: p}
		k.addOwner(c)
		p.anonChunks = append(p.anonChunks, c)
		p.anonPages += c.Pages()
		allocated += c.Pages()
		fresh += k.markPopulated(pfn, c.Pages())
	}
	return k.anonWork(allocated, fresh), true
}

func (k *Kernel) anonWork(pages, fresh int64) sim.Duration {
	w := sim.Duration(pages) * (k.Cost.GuestFaultPerPage + k.Cost.ZeroPerPage)
	if fresh > 0 {
		w += k.VM.PopulatePages(fresh)
	}
	return w
}

// FreeAnon releases bytes of p's anonymous memory, newest allocations
// first (memhog-style churn). It returns the pages actually freed
// (bounded by the process's resident set).
func (k *Kernel) FreeAnon(p *Process, bytes int64) int64 {
	target := units.BytesToPages(bytes)
	var freed int64
	for freed < target && len(p.anonChunks) > 0 {
		c := p.anonChunks[len(p.anonChunks)-1]
		p.anonChunks = p.anonChunks[:len(p.anonChunks)-1]
		k.delOwner(c)
		c.Zone.FreePage(c.PFN, c.Order)
		p.anonPages -= c.Pages()
		freed += c.Pages()
	}
	return freed
}

// FreeAnonRandom releases bytes of p's anonymous memory, choosing
// victim chunks uniformly at random. Freeing in random order leaves the
// buddy freelists in the history-dependent, scattered state a
// long-running guest has — later allocations then spread across all
// memory blocks instead of packing the most recently onlined ones.
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

// ScrambleFreeLists gives a zone the allocator state of a long-running
// guest: it allocates every free page and releases them in random
// order, so the free lists no longer reflect onlining order. Only the
// zone's current free memory is touched; allocated pages are
// unaffected, and no host population happens (the pages are never
// "touched" by a user).
func (k *Kernel) ScrambleFreeLists(z *mem.Zone, rng *rand.Rand) {
	p := k.Spawn("scrambler")
	p.AssignedZone = z
	k.AllocReserved(p, z.NrFree())
	k.FreeAnonRandom(p, units.PagesToBytes(p.anonPages), rng)
	k.Exit(p)
}

// File returns (creating if needed) the named file of the given size.
func (k *Kernel) File(name string, sizeBytes int64) *CachedFile {
	if f, ok := k.files[name]; ok {
		return f
	}
	f := &CachedFile{Name: name, Zone: k.fileZone()}
	k.files[name] = f
	_ = sizeBytes
	return f
}

// TouchFile maps bytes of file f into p, faulting pages into the page
// cache on first access and reusing cached pages afterwards — the
// sharing that gives the N:1 model its memory savings (§6.3). The
// returned work covers major faults (allocate+zero+populate) for
// uncached pages and minor faults for cached ones. ok is false when the
// cache zone is exhausted.
func (k *Kernel) TouchFile(p *Process, f *CachedFile, bytes int64) (work sim.Duration, ok bool) {
	if p.exited {
		panic(fmt.Sprintf("guestos: touch on exited pid %d", p.PID))
	}
	npages := units.BytesToPages(bytes)
	if _, mapped := p.mappedFile[f]; !mapped {
		f.mapCount++
	}
	if npages > p.mappedFile[f] {
		p.mappedFile[f] = npages
	}
	// Minor faults for the pages already resident.
	cachedShare := npages
	if f.residentPages < cachedShare {
		cachedShare = f.residentPages
	}
	work = sim.Duration(cachedShare) * k.Cost.GuestFaultPerPage
	// Major faults extend the cache.
	var fresh int64
	for f.residentPages < npages {
		o := HugeOrder
		if remaining := npages - f.residentPages; remaining < 1<<HugeOrder {
			o = 0
		}
		pfn, got := f.Zone.AllocPage(o)
		for !got && o > 0 {
			o--
			pfn, got = f.Zone.AllocPage(o)
		}
		if !got {
			work += k.fileMajorWork(0, fresh)
			return work, false
		}
		c := &Chunk{PFN: pfn, Order: o, Zone: f.Zone, File: f}
		k.addOwner(c)
		f.chunks = append(f.chunks, c)
		f.residentPages += c.Pages()
		fresh += k.markPopulated(pfn, c.Pages())
		work += k.fileMajorWork(c.Pages(), 0)
	}
	if fresh > 0 {
		work += k.VM.PopulatePages(fresh)
	}
	return work, true
}

func (k *Kernel) fileMajorWork(pages, fresh int64) sim.Duration {
	w := sim.Duration(pages) * (k.Cost.GuestFaultPerPage + k.Cost.ZeroPerPage)
	if fresh > 0 {
		w += k.VM.PopulatePages(fresh)
	}
	return w
}

// DropFile evicts a file's pages from the page cache (used by tests and
// partition teardown). The file must have no mappers.
func (k *Kernel) DropFile(f *CachedFile) {
	if f.mapCount != 0 {
		panic(fmt.Sprintf("guestos: dropping mapped file %q (mapcount %d)", f.Name, f.mapCount))
	}
	for _, c := range f.chunks {
		k.delOwner(c)
		c.Zone.FreePage(c.PFN, c.Order)
	}
	f.chunks = nil
	f.residentPages = 0
	delete(k.files, f.Name)
}

// --- population (EPT) tracking ---

// markPopulated sets the populated bit for each page of the chunk and
// returns how many were newly populated (needing a nested fault). The
// whole chunk is one bulk bitset update, not a per-page loop.
func (k *Kernel) markPopulated(pfn mem.PFN, pages int64) int64 {
	return k.populated.setRange(pfn, pages)
}

// PopulatedInRange counts host-backed pages in [start, start+count).
func (k *Kernel) PopulatedInRange(start mem.PFN, count int64) int64 {
	return k.populated.countRange(start, count)
}

// ReleaseRange clears population state for an unplugged range and
// returns the host frames released.
func (k *Kernel) ReleaseRange(start mem.PFN, count int64) int64 {
	n := k.populated.clearRange(start, count)
	k.VM.ReleasePages(n)
	return n
}

// --- migration support for the offline path ---

// ChunksInRange returns the allocated chunks whose head lies inside
// [start, start+count), in ascending address order. It walks the
// per-block chunk index, so cost scales with the chunks present, not
// with the page span.
func (k *Kernel) ChunksInRange(start mem.PFN, count int64) []*Chunk {
	var out []*Chunk
	end := start + count
	lastBlock := int64(len(k.chunksIn)) - 1
	for b := start / units.PagesPerBlock; b <= lastBlock && b*units.PagesPerBlock < end; b++ {
		for c := range k.chunksIn[b] {
			if c.PFN >= start && c.PFN < end {
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PFN < out[j].PFN })
	return out
}

// MigrateChunk moves a chunk to a freshly allocated target in its zone
// (the source block must already be isolated so the allocator cannot
// hand back pages inside it). It returns the pages copied plus any
// extra guest latency from nested faults on unbacked target pages; ok
// is false when no target memory exists, which aborts the offline.
func (k *Kernel) MigrateChunk(c *Chunk) (pages int64, extra sim.Duration, ok bool) {
	dst, got := c.Zone.AllocPage(c.Order)
	if !got {
		return 0, 0, false
	}
	k.delOwner(c)
	c.PFN = dst
	k.addOwner(c)
	if fresh := k.markPopulated(dst, c.Pages()); fresh > 0 {
		extra = k.VM.PopulatePages(fresh)
	}
	return c.Pages(), extra, true
}

// AllocReserved grabs pages of free memory for p without touching them
// — the balloon driver's reservation path: no zeroing, no population,
// no fault cost. It allocates greedily at the largest orders available
// and returns the chunks it reserved and how many pages they total
// (bounded by free memory).
func (k *Kernel) AllocReserved(p *Process, pages int64) (chunks []*Chunk, got int64) {
	zone := k.anonZone(p)
	for got < pages {
		o := HugeOrder
		if remaining := pages - got; remaining < 1<<HugeOrder {
			o = 0
			for int64(1)<<(o+1) <= remaining {
				o++
			}
		}
		pfn, ok := zone.AllocPage(o)
		for !ok && o > 0 {
			o--
			pfn, ok = zone.AllocPage(o)
		}
		if !ok {
			break
		}
		c := &Chunk{PFN: pfn, Order: o, Zone: zone, Proc: p}
		k.addOwner(c)
		p.anonChunks = append(p.anonChunks, c)
		p.anonPages += c.Pages()
		chunks = append(chunks, c)
		got += c.Pages()
	}
	return chunks, got
}

// ReleaseChunkFrames releases the host frames backing a chunk's pages
// (madvise after a balloon report) and returns how many were released.
func (k *Kernel) ReleaseChunkFrames(c *Chunk) int64 {
	return k.ReleaseRange(c.PFN, c.Pages())
}

// ReturnIsolatedGaps aborts an offline attempt on an isolated block:
// every page in [start, start+count) that is not covered by an
// allocated chunk goes back to the zone's allocator. It returns the
// pages re-freed.
func (k *Kernel) ReturnIsolatedGaps(z *mem.Zone, start mem.PFN, count int64) int64 {
	var returned int64
	gapStart := start
	for _, c := range k.ChunksInRange(start, count) {
		if c.PFN > gapStart {
			z.FreePageRange(gapStart, c.PFN-gapStart)
			returned += c.PFN - gapStart
		}
		gapStart = c.PFN + c.Pages()
	}
	if end := start + count; end > gapStart {
		z.FreePageRange(gapStart, end-gapStart)
		returned += end - gapStart
	}
	return returned
}

// --- accounting ---

// AllocatedPages returns guest-allocated pages across all zones — the
// guest's view of memory usage (Figure 1, guest line).
func (k *Kernel) AllocatedPages() int64 {
	var n int64
	for _, z := range k.zones {
		n += z.NrAllocated()
	}
	return n
}

// CheckInvariants validates cross-layer consistency; O(total span), for
// tests.
func (k *Kernel) CheckInvariants() error {
	for _, z := range k.zones {
		if err := z.CheckInvariants(); err != nil {
			return err
		}
	}
	var owned int64
	for b, m := range k.chunksIn {
		for c := range m {
			if c.PFN/units.PagesPerBlock != int64(b) {
				return fmt.Errorf("rmap block %d != chunk head %d's block", b, c.PFN)
			}
			if !c.Zone.Contains(c.PFN) {
				return fmt.Errorf("chunk %d outside its zone %q", c.PFN, c.Zone.Name)
			}
			owned += c.Pages()
		}
	}
	var allocated int64
	for _, z := range k.zones {
		allocated += z.NrAllocated()
	}
	if owned != allocated {
		return fmt.Errorf("rmap covers %d pages, zones report %d allocated", owned, allocated)
	}
	return nil
}

// --- bitset ---

type bitset struct{ words []uint64 }

func (b *bitset) grow(n int64) {
	need := int((n + 63) / 64)
	for len(b.words) < need {
		b.words = append(b.words, 0)
	}
}

// rangeMasks yields the word span [wlo, whi] of bit range [start,
// start+n) and the partial masks for the first and last word.
func rangeMasks(start, n int64) (wlo, whi int64, first, last uint64) {
	end := start + n - 1
	wlo, whi = start/64, end/64
	first = ^uint64(0) << (start % 64)
	last = ^uint64(0) >> (63 - end%64)
	return wlo, whi, first, last
}

// setRange sets bits [start, start+n), returning how many were
// previously clear. Whole 64-bit words are handled with single
// mask-and-popcount operations.
func (b *bitset) setRange(start, n int64) (fresh int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		m := first & last
		fresh = int64(bits.OnesCount64(m &^ b.words[wlo]))
		b.words[wlo] |= m
		return fresh
	}
	fresh = int64(bits.OnesCount64(first &^ b.words[wlo]))
	b.words[wlo] |= first
	for w := wlo + 1; w < whi; w++ {
		fresh += int64(64 - bits.OnesCount64(b.words[w]))
		b.words[w] = ^uint64(0)
	}
	fresh += int64(bits.OnesCount64(last &^ b.words[whi]))
	b.words[whi] |= last
	return fresh
}

// clearRange clears bits [start, start+n), returning how many were
// previously set.
func (b *bitset) clearRange(start, n int64) (cleared int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		m := first & last
		cleared = int64(bits.OnesCount64(m & b.words[wlo]))
		b.words[wlo] &^= m
		return cleared
	}
	cleared = int64(bits.OnesCount64(first & b.words[wlo]))
	b.words[wlo] &^= first
	for w := wlo + 1; w < whi; w++ {
		cleared += int64(bits.OnesCount64(b.words[w]))
		b.words[w] = 0
	}
	cleared += int64(bits.OnesCount64(last & b.words[whi]))
	b.words[whi] &^= last
	return cleared
}

// countRange returns the number of set bits in [start, start+n).
func (b *bitset) countRange(start, n int64) (set int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		return int64(bits.OnesCount64(first & last & b.words[wlo]))
	}
	set = int64(bits.OnesCount64(first & b.words[wlo]))
	for w := wlo + 1; w < whi; w++ {
		set += int64(bits.OnesCount64(b.words[w]))
	}
	set += int64(bits.OnesCount64(last & b.words[whi]))
	return set
}
