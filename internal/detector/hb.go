package detector

import (
	"sort"

	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// hbCore is the happens-before state the vector-clock detectors
// (FastTrack, Epoch, DJIT) share: one clock per goroutine, one per
// synchronization object, and the fork/acquire/release rules that
// advance them. The detectors embed it by value and differ only in
// their shadow cells — how each memory cell's access history is kept
// and checked against the current goroutine's clock — which is what
// the epochs-vs-vector-clocks ablation compares.
//
// All clocks come from one Pool and live in dense slices keyed by the
// scheduler's small dense TIDs and ObjIDs (stable identities go
// through the sparse indices), so the per-event path performs no
// steady-state allocations and reset reuses every buffer.
type hbCore struct {
	pool      *vclock.Pool
	clocks    []*vclock.VC
	objClocks []*vclock.VC
	objCount  int
	addrIx    sparseIndex
	objIx     sparseIndex
	counts    statCounter
	adapt     adaptCounter
}

func newHBCore() hbCore { return hbCore{pool: vclock.NewPool()} }

// clockOf returns g's clock, initializing it with its own component
// at 1 (each goroutine begins in its own epoch).
func (h *hbCore) clockOf(g vclock.TID) *vclock.VC {
	for int(g) >= len(h.clocks) {
		h.clocks = append(h.clocks, nil)
	}
	if h.clocks[g] == nil {
		c := h.pool.Acquire()
		c.Set(g, 1)
		h.clocks[g] = c
	}
	return h.clocks[g]
}

func (h *hbCore) objClock(o trace.ObjID) *vclock.VC {
	o = trace.ObjID(h.objIx.local(uint64(o)))
	for int(o) >= len(h.objClocks) {
		h.objClocks = append(h.objClocks, nil)
	}
	if h.objClocks[o] == nil {
		h.objClocks[o] = h.pool.Acquire()
		h.objCount++
	}
	return h.objClocks[o]
}

// sync applies the happens-before edge of a fork, acquire or release
// event; other events leave the clocks alone.
func (h *hbCore) sync(ev trace.Event) {
	switch ev.Op {
	case trace.OpFork:
		parent := h.clockOf(ev.G)
		child := h.pool.Acquire()
		parent.CopyInto(child)
		child.Tick(ev.Child)
		for int(ev.Child) >= len(h.clocks) {
			h.clocks = append(h.clocks, nil)
		}
		h.clocks[ev.Child] = child
		parent.Tick(ev.G)

	case trace.OpAcquire:
		h.objClock(ev.Obj).JoinInto(h.clockOf(ev.G))

	case trace.OpRelease:
		if ev.Kind == trace.KindRWRead {
			// Read-mode release: no HB edge. The reader→writer edge
			// travels through the RWMutex's internal read-release
			// object instead.
			return
		}
		h.clockOf(ev.G).JoinInto(h.objClock(ev.Obj))
		h.clockOf(ev.G).Tick(ev.G)
	}
}

// reset releases every clock to the pool and clears the indices and
// counters, keeping all buffers for the next run.
func (h *hbCore) reset() {
	for i, c := range h.clocks {
		if c != nil {
			h.pool.Release(c)
			h.clocks[i] = nil
		}
	}
	h.clocks = h.clocks[:0]
	for i, c := range h.objClocks {
		if c != nil {
			h.pool.Release(c)
			h.objClocks[i] = nil
		}
	}
	h.objClocks = h.objClocks[:0]
	h.objCount = 0
	h.addrIx.reset()
	h.objIx.reset()
	h.counts = statCounter{}
	h.adapt = adaptCounter{}
}

// stats snapshots the shared counters together with the detector's
// own shadow-cell and report counts.
func (h *hbCore) stats(cells, reports int) Stats {
	gor := 0
	for _, c := range h.clocks {
		if c != nil {
			gor++
		}
	}
	return fill(Stats{
		Cells:      cells,
		SyncClocks: h.objCount,
		Goroutines: gor,
		Reports:    reports,
	}, h.counts, h.adapt)
}

// addrReports is the Races surface of the counting detectors (Epoch,
// DJIT), which keep no report metadata: one stackless report per racy
// address, in address order, so "did anything race, and where" reads
// the same across the detector family.
func addrReports(racy map[trace.Addr]bool, name string) []report.Race {
	if len(racy) == 0 {
		return nil
	}
	addrs := make([]int, 0, len(racy))
	for a := range racy {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	out := make([]report.Race, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, report.Race{
			First:    report.Access{Addr: trace.Addr(a), Op: trace.OpWrite},
			Second:   report.Access{Addr: trace.Addr(a), Op: trace.OpWrite},
			Detector: name,
		})
	}
	return out
}
