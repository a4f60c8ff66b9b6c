package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), which
// is how run-to-run spread is judged. With one sample, all three
// quartiles are that sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // may fall outside 0..4: Python extrapolates at the ends
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread returns the interquartile range of xs as a share of its
// median, the measure by which run-to-run steadiness is judged; 0 when
// the median is 0.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// tailRank returns the highest percentile in tailLadder that leaves at
// least ten samples beyond it among n, so a tail is never read off a
// handful of outliers; 0.5 when n is too small for any.
func tailRank(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tail returns the tail percentile of xs chosen by tailRank, with the
// percentile it was read at.
func tail(xs []float64) (value, p float64) {
	p = tailRank(len(xs))
	return percentile(xs, p), p
}

// openLoop records requests sent on a fixed schedule. Latency counts
// from when a request was due, not from when it was sent, so a stall
// charges its wait to every request queued behind it; lateness (send
// minus due) says how far the generator itself fell behind.
type openLoop struct {
	mu      sync.Mutex
	latency []float64 // ms, due -> done
	lag     []float64 // ms, due -> sent
}

// observe records one request that was due at due, sent at sent and
// completed at done.
func (o *openLoop) observe(due, sent, done time.Time) {
	o.mu.Lock()
	o.latency = append(o.latency, ms(done.Sub(due)))
	o.lag = append(o.lag, ms(sent.Sub(due)))
	o.mu.Unlock()
}

// tally counts the requests attempted and how many of them were
// refused (HTTP 429). Whether an answer is a failure is decided by
// bench.check, which also counts a refusal: it misses any latency
// limit.
type tally struct {
	mu        sync.Mutex
	attempted int
	refused   int
}

// observe counts one request that answered status.
func (t *tally) observe(status int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if status == 429 {
		t.refused++
	}
}

// answered counts one request in t and checks its answer: an error, a
// refusal or any status other than want fails a check, and so the run.
func (b *bench) answered(t *tally, what string, status, want int, err error) bool {
	t.observe(status)
	return b.check(err == nil && status == want, "%s: status %d (%v), want %d", what, status, err, want)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
