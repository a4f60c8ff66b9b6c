package corpus

import (
	"fmt"
	"reflect"
	"testing"

	"gorace/internal/core"
	"gorace/internal/patterns"
	"gorace/internal/sweep"
)

// racyRuns returns n distinct manifesting runs of one racy pattern.
func racyRuns(t *testing.T, n int) []sweep.Run {
	t.Helper()
	p, ok := patterns.ByID("capture-loop-index")
	if !ok {
		t.Fatal("pattern capture-loop-index missing")
	}
	wk, err := core.NewRunner(core.WithStrategy("random"), core.WithMaxSteps(1<<16)).NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	u := &sweep.Unit{Program: p.Racy, Strategy: "random", Runs: 1}
	var out []sweep.Run
	for seed := int64(0); seed < 400 && len(out) < n; seed++ {
		o, err := wk.RunSeed(p.Racy, seed)
		if err != nil {
			t.Fatal(err)
		}
		if o.HasRace() {
			out = append(out, sweep.Run{Unit: u, Seed: seed, Outcome: o})
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d racy runs manifested", len(out), n)
	}
	return out
}

// at attributes a run to campaign unit idx, named after it.
func at(r sweep.Run, idx int) sweep.Run {
	u := *r.Unit
	u.ID = fmt.Sprintf("unit-%04d", idx)
	r.Unit, r.UnitIdx = &u, idx
	return r
}

// A per-shard collector costs what its one unit holds, not the
// campaign-global unit index it observes.
func TestCollectorAllocsIndependentOfUnitIndex(t *testing.T) {
	r := racyRuns(t, 1)[0]
	observe := func(r sweep.Run) float64 {
		return testing.AllocsPerRun(50, func() { NewCollector("night").Observe(r) })
	}
	if a0, a1999 := observe(at(r, 0)), observe(at(r, 1999)); a0 != a1999 {
		t.Fatalf("Observe(unit 1999) allocates %.1f, Observe(unit 0) %.1f", a1999, a0)
	}
}

func unitsOf(recs []Record) []string {
	var out []string
	for _, rec := range recs {
		if len(out) == 0 || out[len(out)-1] != rec.Unit {
			out = append(out, rec.Unit)
		}
	}
	return out
}

// Out-of-order, sparse merges and records arriving in non-monotone
// unit order still render in canonical unit order.
func TestCollectorCanonicalOrderFromSparseInputs(t *testing.T) {
	runs := racyRuns(t, 2)
	order := []int{1999, 5, 700, 0, 5}
	root := NewCollector("night")
	for i, idx := range order {
		shard := NewCollector("night")
		shard.Observe(at(runs[i%2], idx))
		root.Merge(shard)
	}
	recs := root.Records()
	want := []string{"unit-0000", "unit-0005", "unit-0700", "unit-1999"}
	if got := unitsOf(recs); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged record units = %v, want %v", got, want)
	}
	if root.Executions() != len(order) {
		t.Fatalf("Executions = %d, want %d", root.Executions(), len(order))
	}

	// Rebuild from the records shuffled into non-monotone unit order:
	// the same records come back, in the same canonical order, as long
	// as each unit's own records keep their relative order.
	unitIdx := map[string]int{}
	for _, idx := range order {
		unitIdx[fmt.Sprintf("unit-%04d", idx)] = idx
	}
	byUnit := map[string][]Record{}
	for _, rec := range recs {
		byUnit[rec.Unit] = append(byUnit[rec.Unit], rec)
	}
	var shuffled []Record
	for _, u := range []string{"unit-0700", "unit-0005", "unit-1999", "unit-0000"} {
		shuffled = append(shuffled, byUnit[u]...)
	}
	rebuilt, err := NewCollectorFromRecords("night", root.Executions(), root.Reports(), shuffled, unitIdx)
	if err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.Records(); !reflect.DeepEqual(got, recs) {
		t.Fatalf("rebuilt records differ:\n got %v\nwant %v", keysOf(got), keysOf(recs))
	}
}
