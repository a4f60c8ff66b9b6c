package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"gorace/internal/core"
)

func TestUnitTableSortedGetOrCreate(t *testing.T) {
	var tab UnitTable[int]
	for _, idx := range []int{5, 2, 9, 2, 0, 7, 9, 9} {
		*tab.At(idx)++
	}
	var got [][2]int
	tab.Each(func(idx int, v *int) { got = append(got, [2]int{idx, *v}) })
	want := [][2]int{{0, 1}, {2, 2}, {5, 1}, {7, 1}, {9, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(want))
	}
	if v := tab.Get(7); v == nil || *v != 1 {
		t.Fatalf("Get(7) = %v, want 1", v)
	}
	for _, idx := range []int{-1, 1, 3, 8, 10} {
		if v := tab.Get(idx); v != nil {
			t.Fatalf("Get(%d) = %d for an absent unit", idx, *v)
		}
	}
}

// racyRun returns one completed run of a racy pattern that manifested,
// attributed to unit idx.
func racyRun(t testing.TB, idx int) Run {
	t.Helper()
	p := pat(t, "capture-loop-index")
	wk, err := core.NewRunner(core.WithStrategy("random"), core.WithMaxSteps(1<<16)).NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 200; seed++ {
		out, err := wk.RunSeed(p.Racy, seed)
		if err != nil {
			t.Fatal(err)
		}
		if out.HasRace() {
			u := &Unit{ID: fmt.Sprintf("unit-%04d", idx), Program: p.Racy, Strategy: "random", Runs: 1}
			return Run{Unit: u, UnitIdx: idx, Seed: seed, Outcome: out}
		}
	}
	t.Fatal("capture-loop-index never raced")
	return Run{}
}

func standardFactories() map[string]Factory {
	return map[string]Factory{
		"Prob":      func() Aggregator { return NewProb() },
		"Corpus":    func() Aggregator { return NewCorpus() },
		"Overhead":  func() Aggregator { return NewOverhead() },
		"FirstRace": func() Aggregator { return NewFirstRace() },
		"Tally":     func() Aggregator { return NewTally() },
	}
}

// A per-shard aggregator costs what its one unit holds: observing the
// last unit of a 2000-unit campaign allocates exactly what observing
// the first does.
func TestShardAggregatorAllocsIndependentOfUnitIndex(t *testing.T) {
	first, last := racyRun(t, 0), racyRun(t, 1999)
	for name, f := range standardFactories() {
		observe := func(r Run) float64 {
			return testing.AllocsPerRun(50, func() { f().Observe(r) })
		}
		if a0, a1999 := observe(first), observe(last); a0 != a1999 {
			t.Errorf("%s: Observe(unit 1999) allocates %.1f, Observe(unit 0) %.1f", name, a1999, a0)
		}
	}
}

// Merging sparse shard aggregates out of unit order still yields
// canonical unit order, with a repeated unit folded into one entry.
func TestMergeOutOfOrderSparseUnits(t *testing.T) {
	order := []int{1999, 5, 700, 0, 5}
	runs := map[int]Run{}
	for _, idx := range order {
		runs[idx] = racyRun(t, idx)
	}
	cases := []struct {
		name  string
		f     Factory
		units func(Aggregator) []string // unit ids in output order
		want  []string
	}{
		{"Prob", func() Aggregator { return NewProb() }, func(a Aggregator) (out []string) {
			for _, s := range a.(*Prob).Stats() {
				out = append(out, fmt.Sprintf("%s×%d", s.Unit, s.Runs))
			}
			return out
		}, []string{"unit-0000×1", "unit-0005×2", "unit-0700×1", "unit-1999×1"}},
		{"Overhead", func() Aggregator { return NewOverhead() }, func(a Aggregator) (out []string) {
			for _, w := range a.(*Overhead).Work() {
				out = append(out, fmt.Sprintf("%s×%d", w.Unit, w.Runs))
			}
			return out
		}, []string{"unit-0000×1", "unit-0005×2", "unit-0700×1", "unit-1999×1"}},
		{"Corpus", func() Aggregator { return NewCorpus() }, func(a Aggregator) (out []string) {
			// Both runs of unit 5 report the same races: deduplicated.
			for _, d := range a.(*Corpus).Detections() {
				if len(out) == 0 || out[len(out)-1] != d.Unit {
					out = append(out, d.Unit)
				}
			}
			return out
		}, []string{"unit-0000", "unit-0005", "unit-0700", "unit-1999"}},
		{"FirstRace", func() Aggregator { return NewFirstRace() }, func(a Aggregator) (out []string) {
			a.(*FirstRace).first.Each(func(idx int, _ *core.Outcome) {
				out = append(out, fmt.Sprintf("unit-%04d", idx))
			})
			return out
		}, []string{"unit-0000", "unit-0005", "unit-0700", "unit-1999"}},
	}
	for _, c := range cases {
		root := c.f()
		for _, idx := range order {
			shard := c.f()
			shard.Observe(runs[idx])
			root.Merge(shard)
		}
		if got := c.units(root); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: after out-of-order merge = %v, want %v", c.name, got, c.want)
		}
	}
}
