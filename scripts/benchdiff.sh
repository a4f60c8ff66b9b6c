#!/usr/bin/env bash
# benchdiff.sh OLD NEW — compare two `go test -bench` outputs and fail
# when any benchmark's allocs/op or B/op regressed by more than 20% (or
# went from zero to nonzero), or when a benchmark in OLD is missing from
# NEW or lost its allocs/op column there (a MISSING line), so dropping,
# renaming or un-instrumenting a benchmark cannot slip past the gate.
# Benchmarks without a ReportAllocs column in OLD are checked for
# presence only; benchmarks only in NEW are skipped.
#
# Usage:
#   go test -bench . -benchtime 100x -run '^$' . > new.txt
#   scripts/benchdiff.sh scripts/bench-baseline.txt new.txt
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <old-bench-output> <new-bench-output>" >&2
  exit 2
fi

awk -v threshold=1.20 '
  FNR == 1 { file++ }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    if (file == 1) baseline[name] = 1
    else           seen[name] = 1
    allocs = -1
    bytes = -1
    for (i = 2; i <= NF; i++) {
      if ($i == "allocs/op") allocs = $(i - 1)
      if ($i == "B/op") bytes = $(i - 1)
    }
    if (allocs < 0) next
    if (file == 1) { old[name] = allocs; oldb[name] = bytes }
    else           { new[name] = allocs; newb[name] = bytes }
  }
  function check(n, metric, o, w) {
    o += 0
    w += 0
    if ((o == 0 && w > 0) || (o > 0 && w > o * threshold)) {
      printf "REGRESSION  %-40s %-9s %10d -> %10d\n", n, metric, o, w
      return 1
    }
    printf "ok          %-40s %-9s %10d -> %10d\n", n, metric, o, w
    return 0
  }
  END {
    status = 0
    compared = 0
    for (n in baseline) {
      if (!(n in seen)) {
        printf "MISSING     %s\n", n
        status = 1
      } else if ((n in old) && !(n in new)) {
        printf "MISSING     %-40s allocs/op\n", n
        status = 1
      }
    }
    for (n in new) {
      if (!(n in old)) continue
      compared++
      if (check(n, "allocs/op", old[n], new[n])) status = 1
      if (oldb[n] >= 0 && newb[n] >= 0 && check(n, "B/op", oldb[n], newb[n])) status = 1
    }
    if (compared == 0) {
      print "benchdiff: no comparable benchmarks (ReportAllocs missing?)" > "/dev/stderr"
      exit 2
    }
    exit status
  }
' "$1" "$2"
