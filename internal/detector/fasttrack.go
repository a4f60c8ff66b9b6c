package detector

import (
	"gorace/internal/report"
	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// access is a recorded prior access to a shadow cell, with everything
// a race report needs.
type access struct {
	g      vclock.TID
	gname  string
	time   uint32
	op     trace.Op
	stk    stack.Context
	label  string
	atomic bool
	locks  []string
	seq    uint64
}

func (a access) toReport(addr trace.Addr) report.Access {
	return report.Access{
		G: a.g, GName: a.gname, Op: a.op, Addr: addr, Seq: a.seq,
		Stack: a.stk, Label: a.label, Atomic: a.atomic, Locks: a.locks,
	}
}

// ftCell is the shadow state of one memory cell. Cells live by value
// in a dense slice indexed by Addr, so looking one up is a bounds
// check, not a map probe, and a fresh cell costs no allocation.
//
// The read history is adaptive, FastTrack style: while a single
// goroutine reads the cell — by far the common case — the history is
// the inline `read` slot and costs nothing beyond the cell itself.
// The first read by a second goroutine *promotes* the cell to the
// `readers` list (drawn from the detector's freelist); the next write
// *demotes* it back, releasing the list for reuse by other cells.
// Unlike textbook FastTrack, an *ordered* read by a second goroutine
// still promotes: this detector reports one race per retained reader
// with that reader's metadata, so collapsing ordered readers into one
// slot would change which reports a later concurrent write produces.
type ftCell struct {
	seen     bool
	hasWrite bool
	hasRead  bool
	write    access
	// read is the epoch-form read slot: the most recent read while at
	// most one goroutine has read since the last write.
	read access
	// readers is the promoted (vector-clock-form) read history: the
	// most recent read per goroutine since the last write, in first-
	// read order. nil while the cell is in epoch form.
	readers []access
	reports int
}

// FastTrack is the happens-before race detector. On the shared
// happens-before core (one vector clock per goroutine and per
// synchronization object) it keeps per-cell access histories; a race
// is two accesses to the same cell, at least one a write, not both
// atomic, with neither ordered before the other.
//
// Shadow cells are held in a dense slice keyed by the scheduler's
// small dense Addrs, so the per-event path performs no steady-state
// allocations. Reset reuses all of it for the next run.
//
// The cells are tracked in pages, and a page budget (SetPageBudget,
// the Evictor interface) bounds how many stay resident; see pageState
// for the retention policy. The registry's "fasttrack-paged" is this
// detector under its own name, the one streaming ingest budgets.
type FastTrack struct {
	hbCore
	name      string
	cells     []ftCell
	cellCount int
	locks     *lockTracker
	races     []report.Race
	// freeReaders recycles demoted readers lists: only currently
	// promoted cells hold list storage, and a demotion hands the
	// backing array to the next promotion anywhere in the detector.
	freeReaders [][]access
	// pages is the per-page paging state of cells; pageBudget bounds
	// the resident pages (0 = unbounded), tick is the access clock
	// that orders their last touches.
	pages              []pageState
	pageBudget         int
	tick               uint64
	livePages          int
	evictions, reloads int
	// MaxReportsPerCell caps reports from a single cell so a racy
	// loop does not flood the output (default 8).
	MaxReportsPerCell int
}

// ftReportName is the detector name FastTrack's race reports carry,
// whatever the registry name it was built under: paging is a retention
// policy, so paged reports keep the §3.3.1 hashes of unpaged ones.
const ftReportName = "fasttrack-hb"

// NewFastTrack returns a fresh happens-before detector.
func NewFastTrack() *FastTrack {
	return &FastTrack{
		hbCore:            newHBCore(),
		name:              ftReportName,
		locks:             newLockTracker(),
		MaxReportsPerCell: 8,
	}
}

// Name implements Detector.
func (ft *FastTrack) Name() string { return ft.name }

// Races implements Detector.
func (ft *FastTrack) Races() []report.Race { return ft.races }

// Candidates implements Detector; the HB detector is precise and has
// no may-not-manifest findings.
func (ft *FastTrack) Candidates() []report.Race { return nil }

// RaceCount returns the number of reports.
func (ft *FastTrack) RaceCount() int { return len(ft.races) }

// Reset implements Detector: it clears all detection state in place,
// releasing clocks to the pool and retaining every buffer, so the
// detector can consume another run without reallocating its shadow
// state. Slices previously returned by Races are invalidated.
func (ft *FastTrack) Reset() {
	ft.hbCore.reset()
	for i := range ft.cells {
		c := &ft.cells[i]
		c.seen, c.hasWrite, c.hasRead, c.reports = false, false, false, 0
		c.write, c.read = access{}, access{}
		if c.readers != nil {
			// Teardown, not a demotion: the counters describe the
			// event stream, so Reset does not touch them.
			ft.releaseReaders(c.readers)
			c.readers = nil
		}
	}
	ft.cellCount = 0
	ft.locks.reset()
	ft.races = ft.races[:0]
	// The budget is configuration and survives; the paging state
	// rewinds with the cells.
	clear(ft.pages)
	ft.tick, ft.livePages, ft.evictions, ft.reloads = 0, 0, 0, 0
}

// acquireReaders pops a recycled readers list, or allocates the first
// time a promotion outruns the freelist.
func (ft *FastTrack) acquireReaders() []access {
	if n := len(ft.freeReaders); n > 0 {
		s := ft.freeReaders[n-1]
		ft.freeReaders[n-1] = nil
		ft.freeReaders = ft.freeReaders[:n-1]
		return s
	}
	return make([]access, 0, 4)
}

// releaseReaders clears a demoted list (dropping its stack and lock
// references) and parks it for the next promotion.
func (ft *FastTrack) releaseReaders(s []access) {
	for i := range s {
		s[i] = access{}
	}
	ft.freeReaders = append(ft.freeReaders, s[:0])
}

// cell returns the shadow cell for a, after marking its page resident
// and most recently touched. The returned pointer is only valid until
// the next cell call (growth may move the backing array).
func (ft *FastTrack) cell(a trace.Addr) *ftCell {
	i := int(ft.addrIx.local(uint64(a)))
	pg := i / pagedCellsPerPage
	ft.tick++
	if pg >= len(ft.pages) || !ft.pages[pg].resident {
		ft.faultPage(pg)
	}
	ft.pages[pg].touch = ft.tick
	for i >= len(ft.cells) {
		ft.cells = append(ft.cells, ftCell{})
	}
	c := &ft.cells[i]
	if !c.seen {
		c.seen = true
		ft.cellCount++
	}
	return c
}

// HandleEvent implements trace.Listener.
func (ft *FastTrack) HandleEvent(ev trace.Event) {
	ft.counts.note(ev)
	switch ev.Op {
	case trace.OpFork, trace.OpAcquire, trace.OpRelease:
		// Lock sets only annotate reports (handle ignores forks); the
		// HB edge is the core's.
		ft.locks.handle(ev)
		ft.sync(ev)

	case trace.OpRead, trace.OpAtomicLoad:
		ft.read(ev)

	case trace.OpWrite, trace.OpAtomicStore, trace.OpAtomicRMW:
		ft.write(ev)
	}
}

func (ft *FastTrack) newAccess(ev trace.Event) access {
	return access{
		g: ev.G, gname: ev.GName, time: ft.clockOf(ev.G).Get(ev.G),
		op: ev.Op, stk: ev.Stack, label: ev.Label,
		atomic: ev.Op.IsAtomic(), locks: ft.locks.heldLabels(ev.G), seq: ev.Seq,
	}
}

func (ft *FastTrack) read(ev trace.Event) {
	c := ft.cell(ev.Addr)
	cur := ft.clockOf(ev.G)
	if c.hasWrite && c.write.g != ev.G && c.write.time > cur.Get(c.write.g) {
		if !(c.write.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, c.write)
		}
	}
	a := ft.newAccess(ev)
	if c.readers != nil {
		// Promoted: maintain the per-goroutine slot in first-read
		// order, exactly the pre-adaptive list behavior.
		for i := range c.readers {
			if c.readers[i].g == ev.G {
				c.readers[i] = a
				return
			}
		}
		c.readers = append(c.readers, a)
		return
	}
	if !c.hasRead || c.read.g == ev.G {
		// Epoch-form fast path: first reader, or the owning goroutine
		// reading again.
		c.read, c.hasRead = a, true
		ft.adapt.fastReads++
		return
	}
	// Second distinct reader: promote. The prior slot goes first so
	// the list order matches the pre-adaptive insertion order.
	c.readers = append(ft.acquireReaders(), c.read, a)
	c.read, c.hasRead = access{}, false
	ft.adapt.promotions++
}

func (ft *FastTrack) write(ev trace.Event) {
	c := ft.cell(ev.Addr)
	cur := ft.clockOf(ev.G)
	if c.hasWrite && c.write.g != ev.G && c.write.time > cur.Get(c.write.g) {
		if !(c.write.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, c.write)
		}
	}
	if c.readers != nil {
		for i := range c.readers {
			r := &c.readers[i]
			if r.g == ev.G {
				continue
			}
			if r.time > cur.Get(r.g) && !(r.atomic && ev.Op.IsAtomic()) {
				ft.report(ev, c, *r)
			}
		}
		// Demote: the write subsumes the ordered read history and the
		// concurrent readers were just reported, so the list storage
		// goes back to the freelist for the next promotion.
		ft.releaseReaders(c.readers)
		c.readers = nil
		ft.adapt.demotions++
	} else if c.hasRead {
		if r := c.read; r.g != ev.G && r.time > cur.Get(r.g) && !(r.atomic && ev.Op.IsAtomic()) {
			ft.report(ev, c, r)
		}
	}
	c.read, c.hasRead = access{}, false
	c.write = ft.newAccess(ev)
	c.hasWrite = true
}

func (ft *FastTrack) report(ev trace.Event, c *ftCell, prior access) {
	if c.reports >= ft.MaxReportsPerCell {
		return
	}
	c.reports++
	second := ft.newAccess(ev)
	ft.races = append(ft.races, report.Race{
		First:    prior.toReport(ev.Addr),
		Second:   second.toReport(ev.Addr),
		Detector: ftReportName,
		Seq:      ev.Seq,
	})
}
