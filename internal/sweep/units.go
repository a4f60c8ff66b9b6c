package sweep

import "sort"

// UnitTable is per-unit aggregator state keyed by campaign unit index:
// a sparse table sorted by index. A shard instance touches one unit
// however large the campaign, and the root instance sees units in
// ascending order as shards fold, so a table costs what its units
// hold, not the campaign's unit count. The zero value is empty.
type UnitTable[T any] struct {
	entries []unitEntry[T]
}

type unitEntry[T any] struct {
	idx int
	val T
}

// At returns unit idx's value, inserting a zero value if the unit has
// none. The pointer is valid until the next At.
func (t *UnitTable[T]) At(idx int) *T {
	n := len(t.entries)
	if n > 0 && t.entries[n-1].idx == idx {
		return &t.entries[n-1].val
	}
	if n == 0 || t.entries[n-1].idx < idx {
		t.entries = append(t.entries, unitEntry[T]{idx: idx})
		return &t.entries[n].val
	}
	i := t.search(idx)
	if t.entries[i].idx != idx {
		t.entries = append(t.entries, unitEntry[T]{})
		copy(t.entries[i+1:], t.entries[i:])
		t.entries[i] = unitEntry[T]{idx: idx}
	}
	return &t.entries[i].val
}

// Get returns unit idx's value, or nil if the unit has none. The
// pointer is valid until the next At.
func (t *UnitTable[T]) Get(idx int) *T {
	if i := t.search(idx); i < len(t.entries) && t.entries[i].idx == idx {
		return &t.entries[i].val
	}
	return nil
}

func (t *UnitTable[T]) search(idx int) int {
	return sort.Search(len(t.entries), func(i int) bool { return t.entries[i].idx >= idx })
}

// Len returns the number of units holding a value.
func (t *UnitTable[T]) Len() int { return len(t.entries) }

// Each calls f for every unit holding a value, in unit order. f must
// not call t.At.
func (t *UnitTable[T]) Each(f func(idx int, v *T)) {
	for i := range t.entries {
		f(t.entries[i].idx, &t.entries[i].val)
	}
}
