package buddy

import "fmt"

// refAllocator is the reference model the differential tests compare
// Allocator against: the buddy allocator with one order byte per page
// (0 means "not the head of a free chunk", k+1 "head of a free order-k
// chunk"), whose IsolateRange and FreeInRange step through the span a
// page at a time. It makes the same LIFO free-list choices as
// Allocator, so the two must return the same PFNs for the same calls.
type refAllocator struct {
	base, npages int64
	ord          []int8
	stacks       [MaxOrder + 1][]int64
	free         int64
	regionPages  int64
	regionFree   []int64
}

func newRef(base, npages int64) *refAllocator {
	return &refAllocator{base: base, npages: npages, ord: make([]int8, npages)}
}

func (a *refAllocator) trackRegions(regionPages int64) {
	a.regionPages = regionPages
	a.regionFree = make([]int64, (a.npages+regionPages-1)/regionPages)
}

func (a *refAllocator) creditRegion(i, delta int64) {
	if a.regionPages != 0 {
		a.regionFree[i/a.regionPages] += delta
	}
}

func (a *refAllocator) alloc(order int) (int64, bool) {
	for k := order; k <= MaxOrder; k++ {
		head, found := a.pop(k)
		if !found {
			continue
		}
		for j := k; j > order; j-- {
			a.push(head+1<<(j-1), j-1)
		}
		a.free -= 1 << order
		a.creditRegion(head, -(1 << order))
		return a.base + head, true
	}
	return 0, false
}

func (a *refAllocator) freeChunk(pfn int64, order int) {
	i := pfn - a.base
	if a.ord[i] != 0 {
		panic(fmt.Sprintf("ref: double free of pfn %d", pfn))
	}
	a.creditRegion(i, 1<<order)
	k := order
	for k < MaxOrder {
		bud := i ^ (1 << k)
		if bud+(1<<k) > a.npages || a.ord[bud] != int8(k)+1 {
			break
		}
		a.ord[bud] = 0
		i = min(i, bud)
		k++
	}
	a.push(i, k)
	a.free += 1 << order
}

func (a *refAllocator) freeRange(pfn, count int64) {
	for count > 0 {
		k := MaxOrder
		for k > 0 && ((pfn-a.base)&((1<<k)-1) != 0 || int64(1)<<k > count) {
			k--
		}
		a.freeChunk(pfn, k)
		pfn += 1 << k
		count -= 1 << k
	}
}

func (a *refAllocator) isolateRange(pfn, count int64) int64 {
	start := pfn - a.base
	end := start + count
	var isolated int64
	for i := start; i < end; i++ {
		k := a.ord[i]
		if k == 0 {
			continue
		}
		sz := int64(1) << (k - 1)
		if i+sz > end {
			panic(fmt.Sprintf("ref: free chunk at %d order %d straddles isolation boundary", a.base+i, k-1))
		}
		a.ord[i] = 0
		isolated += sz
		a.free -= sz
		a.creditRegion(i, -sz)
		i += sz - 1
	}
	return isolated
}

func (a *refAllocator) freeInRange(pfn, count int64) int64 {
	start := max(pfn-a.base, 0)
	end := min(pfn-a.base+count, a.npages)
	var n int64
	for i := start &^ (1<<MaxOrder - 1); i < end; i++ {
		k := a.ord[i]
		if k == 0 {
			continue
		}
		sz := int64(1) << (k - 1)
		if lo, hi := max(i, start), min(i+sz, end); hi > lo {
			n += hi - lo
		}
		i += sz - 1
	}
	return n
}

func (a *refAllocator) freeChunkAt(pfn int64) (int, bool) {
	if k := a.ord[pfn-a.base]; k != 0 {
		return int(k) - 1, true
	}
	return 0, false
}

func (a *refAllocator) push(i int64, order int) {
	a.ord[i] = int8(order) + 1
	a.stacks[order] = append(a.stacks[order], i)
}

func (a *refAllocator) pop(order int) (int64, bool) {
	st := a.stacks[order]
	for len(st) > 0 {
		head := st[len(st)-1]
		st = st[:len(st)-1]
		if a.ord[head] == int8(order)+1 {
			a.ord[head] = 0
			a.stacks[order] = st
			return head, true
		}
	}
	a.stacks[order] = st
	return 0, false
}
