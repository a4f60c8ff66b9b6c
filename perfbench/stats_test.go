package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20000, 0.999},
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{120, 0.90},
		{99, 0.75},
		{10, 0.5},
	} {
		if got := tailRank(c.n); got != c.want {
			t.Errorf("tailRank(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if p != 0.99 || v != 990 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990 at p0.99", v, p)
	}
	if beyond := 1000 - int(v); beyond < 10 {
		t.Errorf("only %d samples beyond the tail", beyond)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	var o openLoop
	t0 := time.Unix(0, 0)
	gap := 10 * time.Millisecond
	// Three requests due every 10 ms; the first stalls for 25 ms, so
	// the second and third are sent late and charged their wait.
	o.observe(t0, t0, t0.Add(25*time.Millisecond))
	o.observe(t0.Add(gap), t0.Add(25*time.Millisecond), t0.Add(26*time.Millisecond))
	o.observe(t0.Add(2*gap), t0.Add(26*time.Millisecond), t0.Add(27*time.Millisecond))
	wantLat := []float64{25, 16, 7}
	wantLag := []float64{0, 15, 6}
	for i := range wantLat {
		if !near(o.latency[i], wantLat[i]) || !near(o.lag[i], wantLag[i]) {
			t.Errorf("request %d: latency %v lag %v, want %v %v", i, o.latency[i], o.lag[i], wantLat[i], wantLag[i])
		}
	}
}

// testBench returns a bench whose every end-to-end metric but ok_frac
// is measured, as a workload leaves it before finish.
func testBench() *bench {
	b := &bench{e2e: map[string]float64{}, layers: map[string]float64{}}
	for _, d := range endToEnd {
		if d.name != "ok_frac" {
			b.metric(d.name, 1)
		}
	}
	return b
}

// result runs finish and decodes the last line it printed.
func result(t *testing.T, b *bench) (code int, r struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct{ Value float64 }
}) {
	t.Helper()
	var out bytes.Buffer
	code = b.finish(&out, "test")
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return code, r
}

func TestFinishCleanRun(t *testing.T) {
	b := testBench()
	b.attempted = 10
	b.check(true, "fine")
	code, r := result(t, b)
	if code != 0 || !r.Correct || r.Attempted != 10 || r.Failed != 0 || r.Metrics["ok_frac"].Value != 1 {
		t.Errorf("clean run: exit %d, %+v", code, r)
	}
}

// A refused request (429) and a wrong status both fail a check; the
// refusal is also counted as refused.
func TestRefusalsAndFailuresFailTheRun(t *testing.T) {
	b := testBench()
	var calls tally
	b.answered(&calls, "GET /v1/stats", 200, 200, nil)
	b.answered(&calls, "POST /v1/jobs", 202, 202, nil)
	b.answered(&calls, "POST /v1/jobs", 429, 202, nil)
	b.answered(&calls, "GET /v1/diff", 500, 200, nil)
	if calls.attempted != 4 || calls.refused != 1 {
		t.Fatalf("tally = %d attempted %d refused, want 4 1", calls.attempted, calls.refused)
	}
	b.attempted += calls.attempted
	code, r := result(t, b)
	if code == 0 || r.Correct || r.Attempted != 4 || r.Failed != 2 || !near(r.Metrics["ok_frac"].Value, 0.5) {
		t.Errorf("2 of 4 failed: exit %d, %+v", code, r)
	}
}

// A metric the workload forgot fails the run, and ok_frac counts that
// check too.
func TestFinishFailsUnmeasuredMetric(t *testing.T) {
	b := testBench()
	delete(b.e2e, "cpu_us_per_op")
	b.attempted = 4
	code, r := result(t, b)
	if code == 0 || r.Failed != 1 || !near(r.Metrics["ok_frac"].Value, 0.75) {
		t.Errorf("missing metric: exit %d, %+v", code, r)
	}
}

func TestSpread(t *testing.T) {
	// quartiles 2.75, 5.5, 8.25: IQR 5.5 over median 5.5.
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("spread of equal values = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(true)
	base := tr.t0
	at := func(msec int) time.Time { return base.Add(time.Duration(msec) * time.Millisecond) }
	// parent [0,100) with children [10,30) and [20,50): they overlap,
	// so together they cover 40 ms and the parent keeps 60 ms.
	p := tr.spanAt("parent", 0, "", at(0), at(100))
	tr.spanAt("child", p, "", at(10), at(30))
	tr.spanAt("child", p, "", at(20), at(50))
	layers := tr.layers()
	got := map[string]layerTime{}
	for _, l := range layers {
		got[l.name] = l
	}
	if !near(got["parent"].selfMs, 60) || !near(got["parent"].totalMs, 100) {
		t.Errorf("parent = %+v, want self 60 total 100", got["parent"])
	}
	if got["child"].count != 2 || !near(got["child"].selfMs, 50) {
		t.Errorf("child = %+v, want 2 spans, self 50", got["child"])
	}
}
