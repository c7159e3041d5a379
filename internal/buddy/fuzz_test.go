package buddy

import (
	"fmt"
	"testing"
)

// Geometry of the fuzzed allocator: four full regions plus a half
// one, at a non-zero base, so region-aligned ranges, the span's ragged
// end and base offsets are all in play.
const (
	fuzzRegion = 1 << MaxOrder
	fuzzBase   = 3 * fuzzRegion
	fuzzPages  = 4*fuzzRegion + fuzzRegion/2
	fuzzBlocks = (fuzzPages + fuzzRegion - 1) / fuzzRegion
	maxFuzzOps = 64
)

// FuzzBuddyOps decodes bytes into allocator operations and runs each
// on Allocator and on refAllocator, the page-stepping reference. The
// first byte chooses whether region counters are on; then two bytes
// (opcode, argument) make one operation: Alloc at any or at a low
// order, Free of a random or of the newest live chunk, FreeRange of a
// block's first run of absent pages, IsolateRange of a block or of its
// tail from an unaligned page, and FreeInRange over a block or over an
// arbitrary range that may stick out of the span. After every
// operation the two must have returned the same values and must agree
// on NrFree and on FreeChunkAt at every page, and CheckInvariants must
// pass. Every byte string decodes to legal calls, so no input may
// panic. The seed corpus is testdata/fuzz/FuzzBuddyOps.
func FuzzBuddyOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tracked := data[0]&1 == 1
		data = data[1:min(len(data), 1+2*maxFuzzOps)]
		h := newFuzzHarness(tracked)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%9, int(data[i+1])
			if err := h.step(op, arg); err != nil {
				t.Fatalf("op %d (%d, %d): %v", i/2, op, arg, err)
			}
			if err := h.agree(); err != nil {
				t.Fatalf("after op %d (%d, %d): %v", i/2, op, arg, err)
			}
		}
	})
}

// fuzzHarness drives an Allocator and its reference in lockstep and
// keeps the page states the legality of each call depends on.
type fuzzHarness struct {
	a    *Allocator
	ref  *refAllocator
	live [][2]int64 // pfn, order of each allocated chunk
	// absent[i] is true for relative page i that is in neither
	// allocator: never onlined, or isolated.
	absent    []bool
	allocated []bool
}

func newFuzzHarness(tracked bool) *fuzzHarness {
	h := &fuzzHarness{
		a:         New(fuzzBase, fuzzPages),
		ref:       newRef(fuzzBase, fuzzPages),
		absent:    make([]bool, fuzzPages),
		allocated: make([]bool, fuzzPages),
	}
	if tracked {
		h.a.TrackRegions(fuzzRegion)
		h.ref.trackRegions(fuzzRegion)
	}
	h.a.FreeRange(fuzzBase, fuzzPages)
	h.ref.freeRange(fuzzBase, fuzzPages)
	return h
}

// block returns the relative page range of block b % fuzzBlocks.
func block(b int) (lo, hi int64) {
	lo = int64(b%fuzzBlocks) * fuzzRegion
	return lo, min(lo+fuzzRegion, fuzzPages)
}

func (h *fuzzHarness) step(op byte, arg int) error {
	switch op {
	case 0, 1:
		order := arg % (MaxOrder + 1)
		if op == 1 {
			order = arg % 3
		}
		pfn, ok := h.a.Alloc(order)
		want, wantOK := h.ref.alloc(order)
		if pfn != want || ok != wantOK {
			return fmt.Errorf("Alloc(%d) = %d, %v; reference %d, %v", order, pfn, ok, want, wantOK)
		}
		if ok {
			h.live = append(h.live, [2]int64{pfn, int64(order)})
			h.mark(h.allocated, pfn-fuzzBase, 1<<order, true)
		}
	case 2, 3:
		if len(h.live) == 0 {
			return nil
		}
		j := len(h.live) - 1
		if op == 2 {
			j = arg % len(h.live)
		}
		c := h.live[j]
		h.live[j] = h.live[len(h.live)-1]
		h.live = h.live[:len(h.live)-1]
		h.a.Free(c[0], int(c[1]))
		h.ref.freeChunk(c[0], int(c[1]))
		h.mark(h.allocated, c[0]-fuzzBase, 1<<c[1], false)
	case 4:
		// Online the first run of absent pages at or after an offset
		// into the block: a whole block after a clean isolate, a gap
		// between allocated chunks otherwise.
		lo, hi := block(arg)
		i := lo + int64(arg)*(hi-lo)/256
		for i < hi && !h.absent[i] {
			i++
		}
		j := i
		for j < hi && h.absent[j] {
			j++
		}
		if j > i {
			h.a.FreeRange(fuzzBase+i, j-i)
			h.ref.freeRange(fuzzBase+i, j-i)
			h.mark(h.absent, i, j-i, false)
		}
	case 5, 8:
		// A block, or its tail from an unaligned page: a free chunk
		// headed before the start stays, as the reference leaves it.
		lo, hi := block(arg)
		if op == 8 {
			lo += int64(arg*53) % (hi - lo)
		}
		got := h.a.IsolateRange(fuzzBase+lo, hi-lo)
		if want := h.ref.isolateRange(fuzzBase+lo, hi-lo); got != want {
			return fmt.Errorf("IsolateRange(%d, %d) = %d, reference %d", fuzzBase+lo, hi-lo, got, want)
		}
		h.markIsolated(block(arg))
	case 6:
		lo, hi := block(arg)
		if got, want := h.a.FreeInRange(fuzzBase+lo, hi-lo), h.ref.freeInRange(fuzzBase+lo, hi-lo); got != want {
			return fmt.Errorf("FreeInRange(block %d) = %d, reference %d", arg%fuzzBlocks, got, want)
		}
	case 7:
		// Unaligned, and possibly sticking out of either end of the
		// span; a quarter start on a block boundary.
		pfn := fuzzBase - 64 + int64(arg*37)%(fuzzPages+128)
		if arg&3 == 0 {
			pfn = fuzzBase + int64(arg>>2%fuzzBlocks)*fuzzRegion
		}
		count := int64(arg*arg*7+arg) % (2 * fuzzRegion)
		if got, want := h.a.FreeInRange(pfn, count), h.ref.freeInRange(pfn, count); got != want {
			return fmt.Errorf("FreeInRange(%d, %d) = %d, reference %d", pfn, count, got, want)
		}
	}
	return nil
}

// markIsolated recomputes which pages of [lo, hi) are absent after an
// isolation: those neither allocated nor inside a free chunk of the
// reference.
func (h *fuzzHarness) markIsolated(lo, hi int64) {
	for i := lo; i < hi; i++ {
		h.absent[i] = !h.allocated[i]
	}
	for i := lo; i < hi; i++ {
		if k, ok := h.ref.freeChunkAt(fuzzBase + i); ok {
			h.mark(h.absent, i, 1<<k, false)
		}
	}
}

func (h *fuzzHarness) mark(state []bool, i, n int64, v bool) {
	for j := i; j < i+n; j++ {
		state[j] = v
	}
}

// agree checks the allocator against its reference and its own
// invariants.
func (h *fuzzHarness) agree() error {
	if err := h.a.CheckInvariants(); err != nil {
		return err
	}
	if h.a.NrFree() != h.ref.free {
		return fmt.Errorf("NrFree %d, reference %d", h.a.NrFree(), h.ref.free)
	}
	for pfn := int64(fuzzBase); pfn < fuzzBase+fuzzPages; pfn++ {
		k, ok := h.a.FreeChunkAt(pfn)
		wk, wok := h.ref.freeChunkAt(pfn)
		if k != wk || ok != wok {
			return fmt.Errorf("FreeChunkAt(%d) = %d, %v; reference %d, %v", pfn, k, ok, wk, wok)
		}
	}
	return nil
}
