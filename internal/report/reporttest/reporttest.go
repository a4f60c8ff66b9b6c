// Package reporttest holds helpers for tests that compare the race
// reports of two detectors or two runs.
package reporttest

import (
	"fmt"

	"gorace/internal/report"
)

// Key renders what a differential test compares of a report: its
// dedup hash, both accesses' address, goroutine and op, and the
// sequence number of the racing access. The hash alone is not enough:
// reports from stackless streams (progen programs, synthetic event
// streams) all hash alike, so comparing hashes compares only counts.
func Key(r report.Race) string {
	return fmt.Sprintf("%s a%d/g%d/%v a%d/g%d/%v s%d", r.Hash(),
		r.First.Addr, r.First.G, r.First.Op, r.Second.Addr, r.Second.G, r.Second.Op, r.Seq)
}

// Keys maps Key over races, keeping their order.
func Keys(races []report.Race) []string {
	out := make([]string, len(races))
	for i, r := range races {
		out[i] = Key(r)
	}
	return out
}

// Diff returns "" when got and want hold the same reports, by Key, in
// the same order, and otherwise describes the first divergence.
func Diff(got, want []report.Race) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if g, w := Key(got[i]), Key(want[i]); g != w {
			return fmt.Sprintf("report %d diverged:\ngot  %s\nwant %s", i, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d reports, want %d", len(got), len(want))
	}
	return ""
}
