// Package buddy implements a Linux-style binary buddy page allocator.
//
// The allocator manages a span of page frames [base, base+npages). Pages
// enter the allocator through Free/FreeRange (memory onlining) and leave
// through Alloc (page allocation) or IsolateRange (memory offlining, the
// MIGRATE_ISOLATE step of hot-unplug). Chunks are power-of-two sized,
// naturally aligned, and coalesce eagerly with their buddy on free, as
// in mm/page_alloc.c.
//
// Free-chunk heads live in bitmaps: one per order k, with a bit per
// 2^k pages, plus one any-order bitmap with a bit per page, about 3
// bits per page in all. A buddy or stack entry is validated with one
// bit test in its order's bitmap, and the double-free check and
// FreeChunkAt test the any-order bit first.
//
// Free lists are per-order LIFO stacks with lazy deletion, so allocation
// order is deterministic (most-recently-freed first, like the kernel's
// hot/cold page behaviour) and removing an arbitrary chunk during
// coalescing or isolation is O(1) amortized.
//
// For the hot-unplug paths the allocator also keeps bulk range state:
// with TrackRegions enabled it maintains a free-page counter per
// fixed-size region (the caller's hotplug block), so FreeInRange over a
// region-aligned range — the per-block occupancy question every unplug
// candidate scan asks — is O(regions) array reads instead of an O(span)
// page walk. IsolateRange skips fully-occupied regions outright and
// clears the rest a word at a time: for each order it counts and clears
// the heads inside the range with masks and popcounts, so isolating a
// 128 MiB block costs about 1,500 word operations however
// fragmented it is. FreeInRange over an unaligned range counts the same
// way.
package buddy
