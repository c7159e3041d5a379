// Package guestos models the guest Linux kernel's memory management as
// the paper depends on it: processes with lazily-faulted anonymous
// memory, a shared page cache for file mappings, fork/exit lifecycles,
// a reverse map from physical chunks to their owners, and the
// migration machinery the hot-unplug path leans on.
//
// The model is structural, not statistical: pages live in real zones
// managed by a real buddy allocator, so footprint interleaving across
// memory blocks — the phenomenon of Figure 3 that makes vanilla
// unplugging slow — emerges from the allocation history exactly as it
// does on Linux.
//
// Page state is maintained in bulk, never page-at-a-time: the EPT
// population bitmap works in word-masked ranges, the chunk reverse map
// is a slice per 128 MiB hotplug block indexed by each chunk's slot,
// zone occupancy questions resolve through the buddy allocator's
// per-region free counters, and the free-list scramble builds no
// Chunks. The population bitmap is paged by hotplug block like the
// reverse map: a block's words are allocated when the guest first
// populates it. A kernel keeps no state beyond its own lifetime; every
// kernel is built fresh.
package guestos
