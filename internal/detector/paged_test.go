package detector

import (
	"testing"

	"gorace/internal/progen"
	"gorace/internal/report"
	"gorace/internal/report/reporttest"
	"gorace/internal/sched"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// newPaged builds the registry's fasttrack-paged configuration.
func newPaged(t *testing.T, budget int) *FastTrack {
	t.Helper()
	d, err := New("fasttrack-paged")
	if err != nil {
		t.Fatal(err)
	}
	ft := d.(*FastTrack)
	ft.SetPageBudget(budget)
	return ft
}

// assertGenuine fails unless every race pairs two accesses of events
// by different goroutines that happens-before leaves unordered. The
// oracle replays only the shared clock rules, so it holds no cell
// history that eviction could have cleared.
func assertGenuine(t *testing.T, events []trace.Event, races []report.Race) {
	t.Helper()
	h := newHBCore()
	epoch := make(map[uint64]uint32)      // access seq → its goroutine's own time
	clocks := make(map[uint64]*vclock.VC) // access seq → its goroutine's clock
	for _, ev := range events {
		if !ev.Op.IsAccess() {
			h.sync(ev)
			continue
		}
		cur := h.clockOf(ev.G)
		epoch[ev.Seq] = cur.Get(ev.G)
		clocks[ev.Seq] = cur.Copy()
	}
	for _, r := range races {
		a, b := r.First, r.Second
		if a.G == b.G || epoch[a.Seq] <= clocks[b.Seq].Get(a.G) {
			t.Fatalf("report is no happens-before violation: %s", reporttest.Key(r))
		}
	}
}

// TestPagedFastTrackUnboundedMatchesPlain pins the tentpole identity:
// with no page budget, the paged detector must produce the exact
// ordered report sequence of plain FastTrack over a broad program
// sample — paging is a retention policy, not an algorithm change.
func TestPagedFastTrackUnboundedMatchesPlain(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		prog := progen.Generate(seed, progen.Params{})
		plain := NewFastTrack()
		paged := newPaged(t, 0)
		sched.Run(prog.Main(), sched.Options{
			Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
			Listeners: []trace.Listener{plain, paged},
		})
		if d := reporttest.Diff(paged.Races(), plain.Races()); d != "" {
			t.Fatalf("seed %d: paged vs plain: %s", seed, d)
		}
		st := paged.Stats()
		if st.Evictions != 0 || st.Reloads != 0 {
			t.Fatalf("seed %d: unbounded paged detector evicted (evictions=%d reloads=%d)",
				seed, st.Evictions, st.Reloads)
		}
	}
}

// TestPagedFastTrackEvicts drives a paged detector with a tiny budget
// over a wide address walk and verifies (a) the budget holds, (b)
// evictions and reloads are observed, and (c) every report is a
// genuine happens-before violation and, since no cell here reaches the
// report cap, one the unpaged detector also makes — eviction may only
// lose races, never invent them.
func TestPagedFastTrackEvicts(t *testing.T) {
	var events []trace.Event
	emit := func(g int, op trace.Op, addr uint64) {
		events = append(events, trace.Event{Seq: uint64(len(events) + 1), G: vclock.TID(g), Op: op, Addr: trace.Addr(addr)})
	}
	// Walk far past two pages of addresses, twice, so cold pages evict
	// and re-fault; plant a same-page racing pair (write by g1, write
	// by g2, no sync) that stays hot.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(1); a <= 4*pagedCellsPerPage; a++ {
			emit(1, trace.OpWrite, a)
			emit(2, trace.OpWrite, 7) // hot racing cell, always touched
		}
	}
	plain := NewFastTrack()
	paged := newPaged(t, 2)
	for _, ev := range events {
		plain.HandleEvent(ev)
		paged.HandleEvent(ev)
	}

	if got := paged.LivePages(); got > 2 {
		t.Fatalf("LivePages() = %d, exceeds budget 2", got)
	}
	st := paged.Stats()
	if st.Evictions == 0 {
		t.Fatal("wide address walk under a 2-page budget never evicted")
	}
	if st.Reloads == 0 {
		t.Fatal("second pass over evicted pages never re-faulted")
	}
	if len(paged.Races()) == 0 {
		t.Fatal("hot racing cell went unreported under eviction")
	}
	assertGenuine(t, events, paged.Races())
	plainSet := make(map[string]bool)
	for _, k := range reporttest.Keys(plain.Races()) {
		plainSet[k] = true
	}
	for _, k := range reporttest.Keys(paged.Races()) {
		if !plainSet[k] {
			t.Fatalf("paged detector reported race %s that plain FastTrack did not", k)
		}
	}
	if pb := paged.PageBytes(); pb <= 0 {
		t.Fatalf("PageBytes() = %d, want positive", pb)
	}
}

// TestPagedReportCapRestartsAfterReload pins the paged report
// contract: eviction clears a cell's report count with its history, so
// a reloaded cell reports true races that plain FastTrack's per-cell
// cap suppressed. Ten racing write pairs on one cell hit the cap of 8;
// after one eviction and reload, four more pairs add 7 reports (the
// first write after the reload has no history to race with).
func TestPagedReportCapRestartsAfterReload(t *testing.T) {
	var events []trace.Event
	emit := func(g int, addr uint64) {
		events = append(events, trace.Event{Seq: uint64(len(events) + 1), G: vclock.TID(g), Op: trace.OpWrite, Addr: trace.Addr(addr)})
	}
	pairs := func(n int) {
		for i := 0; i < n; i++ {
			emit(1, 1)
			emit(2, 1)
		}
	}
	pairs(10)
	emit(1, pagedCellsPerPage+1) // the second page evicts the first
	pairs(4)

	plain := NewFastTrack()
	paged := newPaged(t, 1)
	for _, ev := range events {
		plain.HandleEvent(ev)
		paged.HandleEvent(ev)
	}
	if st := paged.Stats(); st.Evictions != 2 || st.Reloads != 1 {
		t.Fatalf("evictions=%d reloads=%d, want 2 and 1", st.Evictions, st.Reloads)
	}
	pr := paged.Races()
	if len(plain.Races()) != 8 || len(pr) != 15 {
		t.Fatalf("plain reported %d races and paged %d, want 8 and 15", len(plain.Races()), len(pr))
	}
	if d := reporttest.Diff(pr[:8], plain.Races()); d != "" {
		t.Fatalf("paged reports before the eviction vs plain: %s", d)
	}
	assertGenuine(t, events, pr)
	for _, r := range pr {
		if r.Detector != "fasttrack-hb" {
			t.Fatalf("paged report carries detector %q, want fasttrack-hb", r.Detector)
		}
	}
}

// TestPagedFastTrackResetRewindsPaging verifies Reset clears eviction
// state so a recycled detector starts its next run cold.
func TestPagedFastTrackResetRewindsPaging(t *testing.T) {
	paged := newPaged(t, 1)
	for a := uint64(1); a <= 3*pagedCellsPerPage; a++ {
		paged.HandleEvent(trace.Event{Seq: a, G: 1, Op: trace.OpWrite, Addr: trace.Addr(a)})
	}
	if paged.Stats().Evictions == 0 {
		t.Fatal("setup walk never evicted")
	}
	paged.Reset()
	st := paged.Stats()
	if st.Evictions != 0 || st.Reloads != 0 || paged.LivePages() != 0 {
		t.Fatalf("Reset left paging state: evictions=%d reloads=%d live=%d",
			st.Evictions, st.Reloads, paged.LivePages())
	}
	if paged.pageBudget != 1 {
		t.Fatal("Reset must keep the configured budget")
	}
	if paged.Name() != "fasttrack-paged" {
		t.Fatalf("Name() = %q, want fasttrack-paged", paged.Name())
	}
}
