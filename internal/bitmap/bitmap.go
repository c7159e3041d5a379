// Package bitmap is a flat bit array with single-bit operations and
// counted range operations that work a 64-bit word at a time. The
// buddy allocator keeps its free-chunk heads in bitmaps and the guest
// kernel its EPT population state, so both answer range questions
// with masks and popcounts instead of per-page loops.
package bitmap

import "math/bits"

// Bitmap is a fixed-length bit array: bit i lives in word i/64.
type Bitmap []uint64

// New returns a cleared bitmap of at least n bits.
func New(n int64) Bitmap { return make(Bitmap, (n+63)/64) }

// Test reports whether bit i is set.
func (b Bitmap) Test(i int64) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int64) { b[i>>6] |= 1 << (i & 63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int64) { b[i>>6] &^= 1 << (i & 63) }

// rangeMasks yields the word span [wlo, whi] of bit range [start,
// start+n) and the partial masks for the first and last word.
func rangeMasks(start, n int64) (wlo, whi int64, first, last uint64) {
	end := start + n - 1
	wlo, whi = start/64, end/64
	first = ^uint64(0) << (start % 64)
	last = ^uint64(0) >> (63 - end%64)
	return wlo, whi, first, last
}

// SetRange sets bits [start, start+n), returning how many were
// previously clear.
func (b Bitmap) SetRange(start, n int64) (fresh int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		m := first & last
		fresh = int64(bits.OnesCount64(m &^ b[wlo]))
		b[wlo] |= m
		return fresh
	}
	fresh = int64(bits.OnesCount64(first &^ b[wlo]))
	b[wlo] |= first
	for w := wlo + 1; w < whi; w++ {
		fresh += int64(64 - bits.OnesCount64(b[w]))
		b[w] = ^uint64(0)
	}
	fresh += int64(bits.OnesCount64(last &^ b[whi]))
	b[whi] |= last
	return fresh
}

// ClearRange clears bits [start, start+n), returning how many were
// previously set.
func (b Bitmap) ClearRange(start, n int64) (cleared int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		m := first & last
		cleared = int64(bits.OnesCount64(m & b[wlo]))
		b[wlo] &^= m
		return cleared
	}
	cleared = int64(bits.OnesCount64(first & b[wlo]))
	b[wlo] &^= first
	for w := wlo + 1; w < whi; w++ {
		cleared += int64(bits.OnesCount64(b[w]))
		b[w] = 0
	}
	cleared += int64(bits.OnesCount64(last & b[whi]))
	b[whi] &^= last
	return cleared
}

// CountRange returns the number of set bits in [start, start+n).
func (b Bitmap) CountRange(start, n int64) (set int64) {
	if n <= 0 {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, n)
	if wlo == whi {
		return int64(bits.OnesCount64(first & last & b[wlo]))
	}
	set = int64(bits.OnesCount64(first & b[wlo]))
	for w := wlo + 1; w < whi; w++ {
		set += int64(bits.OnesCount64(b[w]))
	}
	set += int64(bits.OnesCount64(last & b[whi]))
	return set
}
