package sched

import (
	"math/rand"
	"sync"
)

// This file holds the schedule RNG: a rand.Source64 that reproduces
// math/rand's seeded source bit for bit, so every seed keeps its
// schedule, but that seeds lazily. math/rand's Seed fills all 607
// words of its additive lagged-Fibonacci register up front (about 1.8k
// chained Park–Miller steps) and NewSource allocates that 4.9 KB
// register each time. A modeled run draws a few dozen values, so
// scheduleSource computes a register word only when a draw first
// touches it, and Run recycles sources through a pool.

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	int32m  = 1<<31 - 1 // the Park–Miller modulus
	// seedSkip is how many Park–Miller steps math/rand's Seed discards
	// before it fills register word 0.
	seedSkip = 20
)

var (
	// seedPows[i][k] is 48271^(seedSkip+1+3i+k) mod (2^31−1): word i
	// of the register is built from the seed's Park–Miller successors
	// at those distances.
	seedPows [rngLen][3]uint64
	// rngCooked is math/rand's per-word whitening table, recovered
	// once from the standard source's own output (see recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for n := 0; n <= seedSkip; n++ {
		p = p * 48271 % int32m
	}
	for i := range seedPows {
		for k := range seedPows[i] {
			seedPows[i][k] = p
			p = p * 48271 % int32m
		}
	}
	rngCooked = recoverCooked()
}

// seedWord returns register word i before whitening, for the
// normalized seed x0.
func seedWord(x0 uint64, i int) int64 {
	p := &seedPows[i]
	return int64(x0*p[0]%int32m)<<40 ^ int64(x0*p[1]%int32m)<<20 ^ int64(x0*p[2]%int32m)
}

// recoverCooked reads the whitening table back out of math/rand. The
// first 607 draws of a fresh source overwrite every register word
// once, so running the additive recurrence backwards over them yields
// the seeded register; XOR with the known seed words leaves the table.
func recoverCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	// Draw k stores out[k] into word feed(k) = (rngLen-rngTap-1-k) mod
	// rngLen, adding word tap(k) = rngLen-1-k. For k >= rngTap the tap
	// word was already overwritten by draw k-rngTap.
	feed := func(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }
	var vec [rngLen]int64
	for k := rngTap; k < rngLen; k++ {
		vec[feed(k)] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed(k)] = out[k] - vec[rngLen-1-k]
	}
	var cooked [rngLen]int64
	for i := range cooked {
		cooked[i] = vec[i] ^ seedWord(seed, i)
	}
	return cooked
}

// scheduleSource is math/rand's additive lagged-Fibonacci source with
// a lazily materialized register. Its Int63 and Uint64 streams equal
// rand.NewSource(seed)'s for every seed.
type scheduleSource struct {
	tap, feed int
	x0        uint64        // normalized seed
	ready     [10]uint64    // bit i set once vec[i] is materialized
	vec       [rngLen]int64 // feedback register
}

// Seed implements rand.Source with math/rand's seed normalization.
func (s *scheduleSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32m
	if seed < 0 {
		seed += int32m
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.ready = [10]uint64{}
}

// word returns register word i, materializing it on first touch.
func (s *scheduleSource) word(i int) int64 {
	w, bit := i>>6, uint64(1)<<(i&63)
	if s.ready[w]&bit == 0 {
		s.ready[w] |= bit
		s.vec[i] = seedWord(s.x0, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 implements rand.Source64.
func (s *scheduleSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *scheduleSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// seededRand is a pooled *rand.Rand and the source it draws from.
type seededRand struct {
	*rand.Rand
	src scheduleSource
}

var randPool = sync.Pool{New: func() any {
	r := &seededRand{}
	r.Rand = rand.New(&r.src)
	return r
}}

// getRand returns a pooled RNG whose stream equals
// rand.New(rand.NewSource(seed)). Return it with putRand once no
// caller holds it.
func getRand(seed int64) *seededRand {
	r := randPool.Get().(*seededRand)
	r.Seed(seed)
	return r
}

func putRand(r *seededRand) { randPool.Put(r) }
