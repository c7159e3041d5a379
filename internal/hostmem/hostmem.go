package hostmem

import (
	"fmt"

	"squeezy/internal/units"
)

// Host is the host memory pool. A zero capacity means unlimited.
type Host struct {
	capacityPages  int64
	committedPages int64
	populatedPages int64
}

// New creates a host pool with the given capacity in bytes; 0 means
// unlimited (the "Abundant Memory" scenario).
func New(capacityBytes int64) *Host {
	return &Host{capacityPages: units.BytesToPages(capacityBytes)}
}

// CapacityPages returns the capacity in pages (0 = unlimited).
func (h *Host) CapacityPages() int64 { return h.capacityPages }

// CommittedPages returns the pages currently committed to VMs.
func (h *Host) CommittedPages() int64 { return h.committedPages }

// PopulatedPages returns the host frames currently backing guest pages.
func (h *Host) PopulatedPages() int64 { return h.populatedPages }

// FreeCommitPages returns how many more pages can be committed; it
// returns a very large value for an unlimited host.
func (h *Host) FreeCommitPages() int64 {
	if h.capacityPages == 0 {
		return 1 << 62
	}
	return h.capacityPages - h.committedPages
}

// TryCommit reserves pages of host memory for a plug operation. It
// fails (without side effects) when the reservation would exceed
// capacity.
func (h *Host) TryCommit(pages int64) bool {
	if pages < 0 {
		panic("hostmem: negative commit")
	}
	if h.capacityPages != 0 && h.committedPages+pages > h.capacityPages {
		return false
	}
	h.committedPages += pages
	return true
}

// Uncommit returns committed pages after an unplug. Populated frames
// must have been released first.
func (h *Host) Uncommit(pages int64) {
	if pages < 0 || pages > h.committedPages {
		panic(fmt.Sprintf("hostmem: bad uncommit %d (committed %d)", pages, h.committedPages))
	}
	h.committedPages -= pages
}

// Populate accounts for host frames faulted in by guest touches.
func (h *Host) Populate(pages int64) {
	if pages < 0 {
		panic("hostmem: negative populate")
	}
	h.populatedPages += pages
	if h.populatedPages > h.committedPages {
		panic(fmt.Sprintf("hostmem: populated %d exceeds committed %d", h.populatedPages, h.committedPages))
	}
}

// Release accounts for host frames released via madvise(MADV_DONTNEED).
func (h *Host) Release(pages int64) {
	if pages < 0 || pages > h.populatedPages {
		panic(fmt.Sprintf("hostmem: bad release %d (populated %d)", pages, h.populatedPages))
	}
	h.populatedPages -= pages
}
