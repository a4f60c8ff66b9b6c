package detector

import (
	"unsafe"

	"gorace/internal/trace"
)

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
// unbounded — the detector must then behave exactly like its unpaged
// counterpart.
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

// PagedFastTrack is FastTrack with paged, evictable shadow memory: the
// dense cell slice is tracked in pages of pagedCellsPerPage cells,
// each page carrying a last-touch tick, and when a page budget is set
// the least-recently-touched page is reclaimed whenever the budget is
// exceeded. Evicted cells lose their access history; a re-accessed
// evicted address restarts in epoch form as if never seen, so races
// straddling an eviction are missed (false negatives only — clearing
// history can never fabricate a happens-before violation, so every
// report remains one the unpaged detector would also make). Evictions
// and Reloads in Stats quantify the tradeoff.
//
// With no budget set, PagedFastTrack is report-identical to FastTrack
// (paged_test.go pins this), so the streaming path's
// unbounded-ceiling mode degenerates to exact batch semantics.
//
// Eviction is driven by a deterministic access-count clock, not
// wall-time or GC pressure: the same event stream under the same
// budget always evicts the same pages at the same points, keeping
// streaming results reproducible.
type PagedFastTrack struct {
	*FastTrack
	maxPages           int
	tick               uint64
	touch              []uint64 // per-page last-touch tick
	resident           []bool
	wasEver            []bool // page has been evicted at least once
	live               int
	evictions, reloads int
}

// NewPagedFastTrack returns a paged detector with no page budget
// (unbounded, FastTrack-identical) until SetPageBudget is called.
func NewPagedFastTrack() *PagedFastTrack {
	return &PagedFastTrack{FastTrack: NewFastTrack()}
}

// Name implements Detector, distinguishing the paged variant in
// experiment output; the race reports themselves keep the embedded
// FastTrack's name (and identical §3.3.1 hashes), since the paged
// variant is the same algorithm under a different retention policy.
func (p *PagedFastTrack) Name() string { return "fasttrack-paged" }

// SetPageBudget implements Evictor.
func (p *PagedFastTrack) SetPageBudget(pages int) {
	if pages < 0 {
		pages = 0
	}
	p.maxPages = pages
}

// PageBytes implements Evictor: the dense cell state of one page. The
// real footprint also includes promoted reader lists and report
// storage, which is why callers budget pages at a fraction of their
// byte ceiling rather than all of it.
func (p *PagedFastTrack) PageBytes() int {
	return pagedCellsPerPage * int(unsafe.Sizeof(ftCell{}))
}

// LivePages implements Evictor.
func (p *PagedFastTrack) LivePages() int { return p.live }

// Stats extends the FastTrack counters with the eviction tallies.
func (p *PagedFastTrack) Stats() Stats {
	s := p.FastTrack.Stats()
	s.Evictions = p.evictions
	s.Reloads = p.reloads
	return s
}

// Reset implements Detector, additionally rewinding the paging state.
func (p *PagedFastTrack) Reset() {
	p.FastTrack.Reset()
	p.tick = 0
	p.live = 0
	p.evictions, p.reloads = 0, 0
	for i := range p.touch {
		p.touch[i] = 0
		p.resident[i] = false
		p.wasEver[i] = false
	}
}

// HandleEvent implements trace.Listener: page bookkeeping (touch,
// fault, evict) runs before the embedded FastTrack consumes the event,
// so the cell the access lands in is guaranteed resident.
func (p *PagedFastTrack) HandleEvent(ev trace.Event) {
	if ev.Op.IsAccess() {
		p.tick++
		// The same first-touch mapping FastTrack.cell will apply —
		// sparseIndex assignment is idempotent, so asking first does
		// not disturb it.
		pg := int(p.addrIx.local(uint64(ev.Addr))) / pagedCellsPerPage
		for pg >= len(p.touch) {
			p.touch = append(p.touch, 0)
			p.resident = append(p.resident, false)
			p.wasEver = append(p.wasEver, false)
		}
		if !p.resident[pg] {
			p.resident[pg] = true
			p.live++
			if p.wasEver[pg] {
				p.reloads++
			}
		}
		p.touch[pg] = p.tick
		if p.maxPages > 0 && p.live > p.maxPages {
			p.evictColdest(pg)
		}
	}
	p.FastTrack.HandleEvent(ev)
}

// evictColdest reclaims the least-recently-touched resident page other
// than keep (the page the current access needs). Ties break toward the
// lowest page index, keeping eviction order a pure function of the
// event stream.
func (p *PagedFastTrack) evictColdest(keep int) {
	victim, best := -1, uint64(0)
	for pg, res := range p.resident {
		if !res || pg == keep {
			continue
		}
		if victim == -1 || p.touch[pg] < best {
			victim, best = pg, p.touch[pg]
		}
	}
	if victim == -1 {
		return // budget of 1 with only the current page resident
	}
	lo := victim * pagedCellsPerPage
	hi := lo + pagedCellsPerPage
	if hi > len(p.cells) {
		hi = len(p.cells)
	}
	for i := lo; i < hi; i++ {
		c := &p.cells[i]
		if !c.seen {
			continue
		}
		if c.readers != nil {
			p.releaseReaders(c.readers)
		}
		*c = ftCell{}
		p.cellCount--
	}
	p.resident[victim] = false
	p.wasEver[victim] = true
	p.live--
	p.evictions++
}
