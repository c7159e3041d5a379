package buddy

import (
	"fmt"
	"math/bits"

	"squeezy/internal/bitmap"
)

// MaxOrder is the largest allocation order (inclusive); order 10 chunks
// are 4 MiB of 4 KiB pages, matching Linux's MAX_PAGE_ORDER.
const MaxOrder = 10

// Allocator is a buddy allocator over a contiguous page-frame span. The
// zero value is not usable; call New.
type Allocator struct {
	base   int64
	npages int64

	// heads[k] has bit i>>k set when relative page i is the head of a
	// free chunk of order k. head has bit i set when page i heads a
	// free chunk of any order, so the double-free check and
	// FreeChunkAt test one bit instead of every order. Together they
	// take about 3 bits per page.
	heads [MaxOrder + 1]bitmap.Bitmap
	head  bitmap.Bitmap

	// stacks[k] holds candidate heads (relative indexes) of free chunks
	// of order k. Entries are validated against heads[k] on pop (lazy
	// deletion), so stale entries are harmless.
	stacks [MaxOrder + 1][]int64

	free int64 // pages currently free

	// Region tracking (TrackRegions): regionPages is the region size in
	// pages (0 = disabled) and regionFree[r] the free pages in region r.
	regionPages int64
	regionFree  []int64
}

// New creates an allocator spanning npages page frames starting at page
// frame number base. All pages start absent (not free): online memory by
// calling FreeRange.
func New(base, npages int64) *Allocator {
	if npages <= 0 {
		panic(fmt.Sprintf("buddy: non-positive span %d", npages))
	}
	// One allocation backs all twelve bitmaps: head has a bit per page,
	// heads[k] a bit per 2^k pages.
	size := func(k int) int64 { return ((npages+1<<k-1)>>k + 63) / 64 }
	words := size(0)
	for k := 0; k <= MaxOrder; k++ {
		words += size(k)
	}
	buf := make(bitmap.Bitmap, words)
	a := &Allocator{base: base, npages: npages}
	a.head, buf = buf[:size(0)], buf[size(0):]
	for k := range a.heads {
		a.heads[k], buf = buf[:size(k)], buf[size(k):]
	}
	return a
}

// TrackRegions enables per-region free-page counters at the given
// region size, which must be a power-of-two multiple of the largest
// chunk size (so no chunk ever straddles a region boundary) and must be
// enabled before any pages are freed into the allocator.
func (a *Allocator) TrackRegions(regionPages int64) {
	if regionPages < 1<<MaxOrder || regionPages&(regionPages-1) != 0 {
		panic(fmt.Sprintf("buddy: bad region size %d", regionPages))
	}
	if a.free != 0 {
		panic("buddy: TrackRegions on a populated allocator")
	}
	a.regionPages = regionPages
	a.regionFree = make([]int64, (a.npages+regionPages-1)/regionPages)
}

// Base returns the first page frame number of the span.
func (a *Allocator) Base() int64 { return a.base }

// Span returns the number of page frames the allocator covers.
func (a *Allocator) Span() int64 { return a.npages }

// NrFree returns the number of free pages.
func (a *Allocator) NrFree() int64 { return a.free }

// Contains reports whether pfn lies within the allocator's span.
func (a *Allocator) Contains(pfn int64) bool {
	return pfn >= a.base && pfn < a.base+a.npages
}

// creditRegion adjusts the free counter of the region containing
// relative page i.
func (a *Allocator) creditRegion(i, delta int64) {
	if a.regionPages != 0 {
		a.regionFree[i/a.regionPages] += delta
	}
}

// Alloc removes a free chunk of 2^order pages and returns its first page
// frame number. ok is false when no chunk of that size can be carved
// (external fragmentation or exhaustion).
func (a *Allocator) Alloc(order int) (pfn int64, ok bool) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	for k := order; k <= MaxOrder; k++ {
		head, found := a.pop(k)
		if !found {
			continue
		}
		// Split down to the requested order, pushing upper halves.
		for j := k; j > order; j-- {
			half := head + 1<<(j-1)
			a.push(half, j-1)
		}
		a.free -= 1 << order
		a.creditRegion(head, -(1 << order))
		return a.base + head, true
	}
	return 0, false
}

// Free returns a chunk of 2^order pages starting at pfn to the
// allocator, coalescing with free buddies. The chunk must have been
// handed out by Alloc at the same order, or be new memory coming online
// (via FreeRange, which calls Free with aligned fragments). Freeing a
// page that is already free corrupts the allocator and panics when
// detectable.
func (a *Allocator) Free(pfn int64, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: bad order %d", order))
	}
	i := pfn - a.base
	if i < 0 || i+(1<<order) > a.npages {
		panic(fmt.Sprintf("buddy: Free(%d, %d) outside span [%d,%d)", pfn, order, a.base, a.base+a.npages))
	}
	if i&((1<<order)-1) != 0 {
		panic(fmt.Sprintf("buddy: Free(%d, %d) misaligned", pfn, order))
	}
	if a.head.Test(i) {
		panic(fmt.Sprintf("buddy: double free of pfn %d", pfn))
	}
	a.creditRegion(i, 1<<order)
	k := order
	for k < MaxOrder {
		bud := i ^ (1 << k)
		if bud+(1<<k) > a.npages || !a.heads[k].Test(bud>>k) {
			break
		}
		// Detach the buddy (its stack entry goes stale) and merge.
		a.heads[k].Clear(bud >> k)
		a.head.Clear(bud)
		if bud < i {
			i = bud
		}
		k++
	}
	a.push(i, k)
	a.free += 1 << order
}

// FreeRange onlines an arbitrary (not necessarily aligned or power-of-
// two) range of pages, decomposing it into maximal aligned chunks.
func (a *Allocator) FreeRange(pfn, count int64) {
	i := pfn
	remaining := count
	for remaining > 0 {
		k := MaxOrder
		for k > 0 && ((i-a.base)&((1<<k)-1) != 0 || int64(1)<<k > remaining) {
			k--
		}
		a.Free(i, k)
		i += 1 << k
		remaining -= 1 << k
	}
}

// IsolateRange removes every free chunk lying entirely inside
// [pfn, pfn+count) from the allocator, as the MIGRATE_ISOLATE phase of
// memory offlining does. It returns the number of pages isolated. Pages
// in the range that are currently allocated are untouched — the caller
// must migrate and FreeRange-return them elsewhere, or hand them back
// with Free after the offline is aborted.
//
// The range must be aligned such that no free chunk straddles its
// boundary; hotplug blocks (128 MiB, 4 MiB-aligned) always satisfy this
// for MaxOrder 10. IsolateRange panics if a free chunk headed inside
// the range extends past its end.
func (a *Allocator) IsolateRange(pfn, count int64) int64 {
	start := pfn - a.base
	end := start + count
	if start < 0 || end > a.npages {
		panic(fmt.Sprintf("buddy: IsolateRange(%d,%d) outside span", pfn, count))
	}
	var isolated int64
	for lo := start; lo < end; {
		hi := end
		if rp := a.regionPages; rp != 0 {
			// A fully-occupied (or offline) region has nothing to
			// isolate.
			hi = min(end, (lo/rp+1)*rp)
			if a.regionFree[lo/rp] == 0 {
				lo = hi
				continue
			}
		}
		n := a.isolate(lo, hi)
		a.creditRegion(lo, -n)
		isolated += n
		lo = hi
	}
	a.free -= isolated
	return isolated
}

// isolate clears every free-chunk head in [lo, hi), a word at a time
// per order, and returns the pages those chunks held. Their stack
// entries go stale.
func (a *Allocator) isolate(lo, hi int64) (pages int64) {
	for k, bm := range a.heads {
		// The order-k heads in [lo, hi) are bits [⌈lo/2^k⌉, ⌈hi/2^k⌉);
		// when hi is not order-k aligned, the last of them straddles.
		first, last := (lo+1<<k-1)>>k, (hi+1<<k-1)>>k
		if hi&(1<<k-1) != 0 && last > first && bm.Test(last-1) {
			panic(fmt.Sprintf("buddy: free chunk at %d order %d straddles isolation boundary", a.base+(last-1)<<k, k))
		}
		pages += bm.ClearRange(first, last-first) << k
	}
	a.head.ClearRange(lo, hi-lo)
	return pages
}

// FreeInRange returns the number of free pages inside [pfn, pfn+count)
// without modifying the allocator. Region-aligned ranges are answered
// from the region counters in O(regions); others count each order's
// heads a word at a time.
func (a *Allocator) FreeInRange(pfn, count int64) int64 {
	start := max(pfn-a.base, 0)
	end := min(pfn-a.base+count, a.npages)
	if end <= start {
		return 0
	}
	if rp := a.regionPages; rp != 0 && start%rp == 0 && (end%rp == 0 || end == a.npages) {
		var n int64
		for r := start / rp; r*rp < end; r++ {
			n += a.regionFree[r]
		}
		return n
	}
	var n int64
	for k, bm := range a.heads {
		// Order-k chunks overlapping [start, end) have heads j<<k for
		// j in [first, last]; only the first and last can stick out.
		first, last := start>>k, (end-1)>>k
		n += bm.CountRange(first, last-first+1) << k
		if bm.Test(first) {
			n -= start - first<<k
		}
		if bm.Test(last) {
			n -= (last+1)<<k - end
		}
	}
	return n
}

// FreeChunkAt reports whether pfn is the head of a free chunk, and if
// so that chunk's order. Interior pages of a free chunk, allocated
// pages, and absent pages all return ok=false.
func (a *Allocator) FreeChunkAt(pfn int64) (order int, ok bool) {
	i := pfn - a.base
	if i < 0 || i >= a.npages || !a.head.Test(i) {
		return 0, false
	}
	return a.orderAt(i), true
}

// orderAt returns the order of the free chunk headed at relative page
// i (its head bit must be set), or -1 when no order claims it.
func (a *Allocator) orderAt(i int64) int {
	for k := 0; k <= MaxOrder && i&(1<<k-1) == 0; k++ {
		if a.heads[k].Test(i >> k) {
			return k
		}
	}
	return -1
}

// LargestFreeOrder returns the highest order with at least one free
// chunk, or -1 if the allocator is empty.
func (a *Allocator) LargestFreeOrder() int {
	for k := MaxOrder; k >= 0; k-- {
		for _, head := range a.stacks[k] {
			if a.heads[k].Test(head >> k) {
				return k
			}
		}
	}
	return -1
}

func (a *Allocator) push(i int64, order int) {
	a.heads[order].Set(i >> order)
	a.head.Set(i)
	a.stacks[order] = append(a.stacks[order], i)
}

func (a *Allocator) pop(order int) (int64, bool) {
	st := a.stacks[order]
	for len(st) > 0 {
		head := st[len(st)-1]
		st = st[:len(st)-1]
		if a.heads[order].Test(head >> order) {
			a.heads[order].Clear(head >> order)
			a.head.Clear(head)
			a.stacks[order] = st
			return head, true
		}
	}
	a.stacks[order] = st
	return 0, false
}

// CheckInvariants validates internal consistency: every head bit
// inside the span marks exactly one order's head, each order bit
// belongs to a head bit, no free chunk overlaps another or overruns
// the span, the free count matches the chunks, and the region counters
// (when enabled) agree with a fresh count. It is O(span/64 + free
// chunks) and intended for tests.
func (a *Allocator) CheckInvariants() error {
	var counted, nheads, covered int64
	regions := make([]int64, len(a.regionFree))
	for w, word := range a.head {
		for ; word != 0; word &= word - 1 {
			i := int64(w)*64 + int64(bits.TrailingZeros64(word))
			if i >= a.npages {
				return fmt.Errorf("head bit at %d past the span", a.base+i)
			}
			k := a.orderAt(i)
			if k < 0 {
				return fmt.Errorf("head bit at %d with no order bit", a.base+i)
			}
			for j := k + 1; j <= MaxOrder && i&(1<<j-1) == 0; j++ {
				if a.heads[j].Test(i >> j) {
					return fmt.Errorf("page %d heads free chunks of orders %d and %d", a.base+i, k, j)
				}
			}
			sz := int64(1) << k
			if i < covered {
				return fmt.Errorf("chunk at %d order %d overlaps the chunk before it", a.base+i, k)
			}
			if i+sz > a.npages {
				return fmt.Errorf("chunk at %d order %d overruns span", a.base+i, k)
			}
			covered = i + sz
			nheads++
			counted += sz
			if a.regionPages != 0 {
				regions[i/a.regionPages] += sz
			}
		}
	}
	// Each head above claimed one order bit; any other is stray.
	var orderBits int64
	for _, bm := range a.heads {
		orderBits += bm.CountRange(0, int64(len(bm))*64)
	}
	if orderBits != nheads {
		return fmt.Errorf("%d order bits for %d head bits", orderBits, nheads)
	}
	if counted != a.free {
		return fmt.Errorf("free count %d != chunks total %d", a.free, counted)
	}
	for r, want := range regions {
		if a.regionFree[r] != want {
			return fmt.Errorf("region %d free count %d != counted %d", r, a.regionFree[r], want)
		}
	}
	return nil
}
