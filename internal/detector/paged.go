package detector

import "unsafe"

// pagedCellsPerPage is the shadow-page granularity: cells are grouped
// into pages of this many consecutive dense indices, and eviction
// reclaims whole pages. 256 cells × ~¼ KiB of ftCell state ≈ 64 KiB
// per page — big enough that LRU bookkeeping is negligible per access,
// small enough that one eviction does not blow away a large fraction
// of the working set.
const pagedCellsPerPage = 256

// Evictor is implemented by detectors whose shadow memory is paged and
// evictable, the hook streaming ingest (internal/stream) uses to hold
// a detector under a hard memory ceiling. A budget of 0 means
// unbounded: nothing is ever evicted.
type Evictor interface {
	// SetPageBudget bounds the resident shadow pages; exceeding it
	// evicts least-recently-touched pages. 0 removes the bound.
	SetPageBudget(pages int)
	// PageBytes returns the approximate heap footprint of one resident
	// page, the unit callers divide a byte ceiling by.
	PageBytes() int
	// LivePages returns the number of currently resident pages.
	LivePages() int
}

// pageState is the bookkeeping of one shadow page under paging,
// FastTrack's shadow-memory retention policy. The dense cell slice is
// tracked in pages of pagedCellsPerPage cells, each carrying a
// last-touch tick, and once a page budget is set the
// least-recently-touched page is reclaimed whenever the budget is
// exceeded. Evicted cells lose their access history and their report
// count: a re-accessed evicted address restarts in epoch form as if
// never seen. Races straddling an eviction are therefore missed, yet
// every report is still a genuine happens-before violation (clearing
// history never fabricates one). Because the per-cell report cap
// restarts after a reload, a reloaded cell can report races the
// unbounded detector suppressed at its cap. Evictions and Reloads in
// Stats quantify the tradeoff.
//
// With no budget nothing is evicted and the detector is exactly
// FastTrack, so the streaming path's unbounded-ceiling mode is exact
// batch semantics. Eviction is driven by a deterministic access-count
// clock, not wall-time or GC pressure: the same event stream under the
// same budget always evicts the same pages at the same points, keeping
// streaming results reproducible.
type pageState struct {
	touch    uint64 // access tick of the last touch
	resident bool
	evicted  bool // evicted at least once, so a re-fault is a reload
}

// SetPageBudget implements Evictor.
func (ft *FastTrack) SetPageBudget(pages int) {
	ft.pageBudget = max(pages, 0)
}

// PageBytes implements Evictor: the dense cell state of one page. The
// real footprint also includes promoted reader lists and report
// storage, which is why callers budget pages at a fraction of their
// byte ceiling rather than all of it.
func (ft *FastTrack) PageBytes() int {
	return pagedCellsPerPage * int(unsafe.Sizeof(ftCell{}))
}

// LivePages implements Evictor.
func (ft *FastTrack) LivePages() int { return ft.livePages }

// faultPage makes page pg resident, evicting the coldest other page
// when that exceeds the budget. FastTrack.cell calls it before the
// access reads its cell, so that cell is never the one evicted.
func (ft *FastTrack) faultPage(pg int) {
	for pg >= len(ft.pages) {
		ft.pages = append(ft.pages, pageState{})
	}
	p := &ft.pages[pg]
	p.resident = true
	ft.livePages++
	if p.evicted {
		ft.reloads++
	}
	if ft.pageBudget > 0 && ft.livePages > ft.pageBudget {
		ft.evictColdest(pg)
	}
}

// evictColdest reclaims the least-recently-touched resident page other
// than keep (the page the current access needs). Ties break toward the
// lowest page index, keeping eviction order a pure function of the
// event stream.
func (ft *FastTrack) evictColdest(keep int) {
	victim, best := -1, uint64(0)
	for pg, p := range ft.pages {
		if !p.resident || pg == keep {
			continue
		}
		if victim == -1 || p.touch < best {
			victim, best = pg, p.touch
		}
	}
	if victim == -1 {
		return // budget of 1 with only the current page resident
	}
	lo := victim * pagedCellsPerPage
	hi := min(lo+pagedCellsPerPage, len(ft.cells))
	for i := lo; i < hi; i++ {
		c := &ft.cells[i]
		if !c.seen {
			continue
		}
		if c.readers != nil {
			ft.releaseReaders(c.readers)
		}
		*c = ftCell{}
		ft.cellCount--
	}
	ft.pages[victim].resident = false
	ft.pages[victim].evicted = true
	ft.livePages--
	ft.evictions++
}
