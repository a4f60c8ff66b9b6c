package sched

import (
	"math"
	"math/rand"
	"testing"
)

// sourceDraws is how many values each equivalence check draws: well
// past the 607-word register, so every word is materialized, then
// overwritten and read back through the recurrence.
const sourceDraws = 1536

// sourceSeeds lists the edge cases of math/rand's seed normalization
// (zero, signs, the int64 extremes, multiples of 2^31−1, which fold to
// zero, and the seed zero is replaced by) plus the PCT change-point
// seeds derived from them.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		int32m, -int32m, 2 * int32m, -2 * int32m, int32m * int32m,
		int32m - 1, int32m + 1, 89482311, -89482311, 1 << 31, 1 << 62,
	}
	for _, s := range seeds[:len(seeds):len(seeds)] {
		seeds = append(seeds, s^0x9e3779b9)
	}
	return seeds
}

// checkSameStream draws n values from got and from math/rand seeded
// with seed, mixing the methods strategies call, and reports the first
// mismatch.
func checkSameStream(t *testing.T, got *rand.Rand, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 4 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			k := 1 + i%37
			if i%8 == 6 {
				k = 1 << (i % 40) // Intn's power-of-two and 63-bit paths
			}
			g, w = got.Intn(k), want.Intn(k)
		case 3:
			g, w = got.Float64(), want.Float64()
		}
		if g != w {
			t.Fatalf("seed %d draw %d: got %v, math/rand gives %v", seed, i, g, w)
		}
	}
}

func TestScheduleSourceMatchesMathRand(t *testing.T) {
	seeds := sourceSeeds()
	gen := rand.New(rand.NewSource(20240611))
	for i := 0; i < 2000; i++ {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for _, seed := range seeds {
		r := getRand(seed)
		checkSameStream(t, r.Rand, seed, sourceDraws)
		putRand(r)
	}
}

// A source that has already drawn past the register wrap must behave
// exactly like a fresh one after Seed: every word is re-materialized.
func TestScheduleSourceReseed(t *testing.T) {
	r := getRand(7)
	defer putRand(r)
	checkSameStream(t, r.Rand, 7, sourceDraws)
	for _, seed := range sourceSeeds() {
		r.Seed(seed)
		checkSameStream(t, r.Rand, seed, sourceDraws)
	}
	r.Seed(7)
	checkSameStream(t, r.Rand, 7, 10)
}

// Seeding is the per-run cost the lazy register removes: a pooled
// source seeds and serves a short run's draws without allocating.
func TestScheduleSourceSeedsWithoutAllocating(t *testing.T) {
	putRand(getRand(1))
	allocs := testing.AllocsPerRun(100, func() {
		r := getRand(42)
		for i := 0; i < 64; i++ {
			r.Intn(3)
		}
		putRand(r)
	})
	// sync.Pool may drop an entry at a GC; allow that rare refill.
	if allocs > 1 {
		t.Fatalf("seed+draw allocated %.1f times per run, want ≤ 1", allocs)
	}
}

func FuzzScheduleSource(f *testing.F) {
	for _, seed := range sourceSeeds() {
		f.Add(seed, uint16(sourceDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		r := getRand(seed)
		defer putRand(r)
		checkSameStream(t, r.Rand, seed, int(draws))
	})
}
