package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"gorace/internal/core"
	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/monorepo"
	"gorace/internal/report"
	"gorace/internal/sweep"
)

// The nightly workload: a synthetic monorepo run night after night
// with RunNightly, each night folded into an on-disk store and diffed
// against the night before. Between nights a seeded share of the tests
// that raced is fixed, so NEW, RECURRING and RESOLVED defects all
// occur. A cycle of nights starts from a freshly generated repo and
// store, so new defects keep arriving however long the run is.
//
// The racy share is raced's -nightly-racy default, and the share of
// raced tests fixed each night is the developer fix rate racespy -real
// passes to monorepo.SimulateDeployment.
const (
	nightServices = 50
	nightTests    = 40
	nightRacy     = 0.4
	cycleNights   = 6
	fixFrac       = 0.25
	nightMaxSteps = 1 << 16 // RunNightly's per-execution step bound
	stackRounds   = 3       // repeats of each scheduler-level layer in the layer stack
)

// cycle is one sequence of consecutive nights over one repo and store.
type cycle struct {
	repo  *monorepo.Repo
	store *corpus.Store
	path  string
	rng   *rand.Rand
	runs  []string
	last  *monorepo.Nightly
}

func newCycle(b *bench, seed int64, name string) (*cycle, error) {
	path := filepath.Join(b.work, name+".db")
	if err := os.RemoveAll(path); err != nil {
		return nil, err
	}
	st, err := corpus.Open(path)
	if err != nil {
		return nil, err
	}
	return &cycle{
		repo:  monorepo.Generate(nightServices, nightTests, nightRacy, seed),
		store: st,
		path:  path,
		rng:   rand.New(rand.NewSource(seed)),
	}, nil
}

// racyUnits maps each test's unit id to whether it still holds its bug.
func racyUnits(r *monorepo.Repo) map[string]bool {
	out := make(map[string]bool)
	for _, svc := range r.Services {
		for _, t := range svc.Tests {
			out[svc.Name+"/"+t.Name] = t.Racy
		}
	}
	return out
}

// nightResult is what one night cost and found.
type nightResult struct {
	dur, cpu    time.Duration
	alloc       uint64
	execs       int
	racy, found int // racy tests at night start, and how many raced
	newN, recN  int
	resN        int
}

// night runs one RunNightly, checks it, and fixes a seeded share of
// the tests that raced.
func (c *cycle) night(b *bench, parent int) (nightResult, error) {
	racy := racyUnits(c.repo)
	runID := fmt.Sprintf("night-%04d", len(c.runs))
	seed := c.rng.Int63()
	a0 := allocated()
	c0 := cpuTime()
	t0 := time.Now()
	n, err := c.repo.RunNightly(c.store, runID, seed)
	t1 := time.Now()
	cpu := cpuTime() - c0
	alloc := allocated() - a0
	if err != nil {
		return nightResult{}, err
	}
	b.tr.spanAt("monorepo.RunNightly", parent, runID, t0, t1)
	c.runs = append(c.runs, runID)
	c.last = n
	r := nightResult{dur: t1.Sub(t0), cpu: cpu, alloc: alloc, execs: n.Executions,
		newN: len(n.Delta.New), recN: len(n.Delta.Recurring), resN: len(n.Delta.Resolved)}
	b.check(n.Executions == len(racy), "%s: %d executions, want one per test (%d)", runID, n.Executions, len(racy))
	found := map[string]bool{}
	for _, rec := range append(append([]corpus.Record(nil), n.Delta.New...), n.Delta.Recurring...) {
		if !b.check(racy[rec.Unit], "%s: defect %s reported on race-free test %s", runID, rec.Key, rec.Unit) {
			continue
		}
		found[rec.Unit] = true
	}
	for _, isRacy := range racy {
		if isRacy {
			r.racy++
		}
	}
	r.found = len(found)
	c.fix(found)
	return r, nil
}

// fix repairs a seeded share of the given units, in a fixed order.
func (c *cycle) fix(units map[string]bool) {
	ids := make([]string, 0, len(units))
	for id := range units {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if c.rng.Float64() < fixFrac {
			svc, test, _ := strings.Cut(id, "/")
			c.repo.Fix(svc, test)
		}
	}
}

// finish closes the store, reopens it from disk and checks that the
// record count and the last diff come back unchanged.
func (c *cycle) finish(b *bench) error {
	want := c.store.Len()
	if err := c.store.Close(); err != nil {
		return err
	}
	st, err := corpus.Open(c.path)
	if err != nil {
		return err
	}
	defer os.Remove(c.path)
	defer st.Close()
	b.check(st.Len() == want, "%s: reopened store holds %d records, want %d", c.path, st.Len(), want)
	if len(c.runs) < 2 {
		return nil
	}
	d, err := st.Diff(c.runs[len(c.runs)-2], c.runs[len(c.runs)-1])
	if err != nil {
		return err
	}
	b.check(sameDelta(d, c.last.Delta), "%s: reopened store diffs %s differently", c.path, c.runs[len(c.runs)-1])
	return nil
}

func keys(recs []corpus.Record) string {
	ks := make([]string, len(recs))
	for i, r := range recs {
		ks[i] = r.Key
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func sameDelta(a, b corpus.Delta) bool {
	return keys(a.New) == keys(b.New) && keys(a.Recurring) == keys(b.Recurring) && keys(a.Resolved) == keys(b.Resolved)
}

// nightTotals accumulates nights of one measured phase.
type nightTotals struct {
	nights       []float64 // ms per night
	dur          time.Duration
	execs        int
	alloc        uint64
	racy, found  int
	newN, recN   int
	resN         int
	cyclePeakMiB []float64
	cycleCPU     []float64 // CPU us per execution, one per cycle
}

func (t *nightTotals) opsPerS() float64 { return float64(t.execs) / t.dur.Seconds() }

// nightPhase runs whole cycles until the deadline passes.
func nightPhase(b *bench, tot *nightTotals, deadline time.Time) error {
	for n := 1; time.Now().Before(deadline); n++ {
		if err := nightCycle(b, tot, n, "run"); err != nil {
			return err
		}
	}
	return nil
}

// cycleSeed is the seed of cycle n's repo, night seeds and fixes.
func cycleSeed(b *bench, n int) int64 { return b.seed*1_000_003 + int64(n) }

// nightCycle runs cycle n: cycleNights nights over a repo and store of
// their own, then the reopen check.
func nightCycle(b *bench, tot *nightTotals, n int, tag string) error {
	c, err := newCycle(b, cycleSeed(b, n), fmt.Sprintf("%s-cycle%d", tag, n))
	if err != nil {
		return err
	}
	root, end := b.tr.open("nightly.cycle", 0, tag)
	peak := watchHeap()
	var cpu time.Duration
	execs := 0
	for k := 0; k < cycleNights; k++ {
		r, err := c.night(b, root)
		if err != nil {
			end()
			peak.mib()
			return err
		}
		b.attempted += r.execs
		tot.nights = append(tot.nights, ms(r.dur))
		tot.dur += r.dur
		tot.execs += r.execs
		cpu += r.cpu
		execs += r.execs
		tot.alloc += r.alloc
		tot.racy += r.racy
		tot.found += r.found
		tot.newN += r.newN
		tot.recN += r.recN
		tot.resN += r.resN
	}
	tot.cyclePeakMiB = append(tot.cyclePeakMiB, peak.mib())
	tot.cycleCPU = append(tot.cycleCPU, float64(cpu)/float64(time.Microsecond)/float64(execs))
	end()
	return c.finish(b)
}

func runNightly(b *bench) error {
	// Set-up: generate a repo, open a store and run one warm-up night.
	step := func(i int) (time.Duration, error) {
		t0 := time.Now()
		c, err := newCycle(b, b.seed*7+int64(i), fmt.Sprintf("setup%d", i))
		if err != nil {
			return 0, err
		}
		if _, err := c.night(b, 0); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, c.finish(b)
	}
	if err := b.setup(step); err != nil {
		return err
	}

	if b.traced {
		return nightlyTraced(b)
	}
	var tot nightTotals
	gc := readGC()
	if err := nightPhase(b, &tot, time.Now().Add(b.seconds)); err != nil {
		return err
	}
	gc.since(b)
	b.check(tot.newN > 0 && tot.recN > 0 && tot.resN > 0,
		"nights saw %d new, %d recurring, %d resolved; want all three", tot.newN, tot.recN, tot.resN)
	// CPU time, not wall time: on a shared host a night's wall time
	// also counts the time the hypervisor gave its CPUs to other
	// guests; on a 2-vCPU virtual machine that swung the wall-clock
	// rate by a fifth between runs of the same code. The wall-clock
	// figures are printed and, in the traced run, reported per layer.
	b.metric("cpu_us_per_op", median(tot.cycleCPU))
	v, p := tail(tot.nights)
	fmt.Printf("nightly: %d nights of %d tests, %d executions in %d cycles; CPU us/execution per cycle: median %.2f, spread %.3f\n",
		len(tot.nights), nightServices*nightTests, tot.execs, len(tot.cycleCPU), median(tot.cycleCPU), spread(tot.cycleCPU))
	fmt.Printf("nightly: wall clock: %.0f executions/s; night p50 %.1f ms, p%g %.1f ms\n",
		tot.opsPerS(), median(tot.nights), 100*p, v)
	b.metric("heap_mib", median(tot.cyclePeakMiB))
	b.metric("alloc_b_per_op", float64(tot.alloc)/float64(tot.execs))
	b.metric("detected_frac", float64(tot.found)/float64(tot.racy))
	return nil
}

// nightlyTraced measures the tracing overhead on the nightly loop, by
// running each cycle untraced and then traced, and then re-runs the
// nights of the first cycle as a stack of layers.
func nightlyTraced(b *bench) error {
	gc := readGC()
	var plain, traced nightTotals
	for n, end := 1, time.Now().Add(b.seconds*2/3); n == 1 || time.Now().Before(end); n++ {
		b.tr.on = false
		if err := nightCycle(b, &plain, n, "plain"); err != nil {
			return err
		}
		b.tr.on = true
		if err := nightCycle(b, &traced, n, "traced"); err != nil {
			return err
		}
	}
	b.layer("bench.trace_overhead_frac", plain.opsPerS()/traced.opsPerS()-1)
	b.layer("nightly.runs_per_s", plain.opsPerS())
	b.layer("nightly.night_p50_ms", median(plain.nights))
	b.note("tracing overhead: %.0f executions/s traced vs %.0f untraced, same cycles (base: untraced)", traced.opsPerS(), plain.opsPerS())
	if err := layerStack(b); err != nil {
		return err
	}
	gc.since(b)
	// The stream workload is not among the benchmark's workloads (its
	// timings swing with the host), so the layers only it exercises
	// are measured here, after the collector counts.
	return streamLayers(b)
}

// nightUnits is the campaign RunNightly builds for one night, with the
// detector and recording chosen per layer.
func nightUnits(r *monorepo.Repo, seed int64, det string, record bool) []sweep.Unit {
	var units []sweep.Unit
	for si, svc := range r.Services {
		for ti, t := range svc.Tests {
			units = append(units, sweep.Unit{
				ID:       svc.Name + "/" + t.Name,
				Program:  t.Program(),
				Detector: det,
				BaseSeed: seed ^ int64(si*131+ti*17),
				Runs:     1,
				MaxSteps: nightMaxSteps,
				Record:   record,
			})
		}
	}
	return units
}

// timedFold delegates to a corpus.Collector and times its folds.
type timedFold struct {
	c      *corpus.Collector
	tr     *tracer
	parent int
	busy   time.Duration
}

func (f *timedFold) Observe(r sweep.Run) {
	t0 := time.Now()
	f.c.Observe(r)
	t1 := time.Now()
	f.busy += t1.Sub(t0)
	f.tr.spanAt("corpus.Collector.Observe", f.parent, "", t0, t1)
}

func (f *timedFold) Merge(next sweep.Aggregator) {
	o := next.(*timedFold)
	t0 := time.Now()
	f.c.Merge(o.c)
	t1 := time.Now()
	f.busy += o.busy + t1.Sub(t0)
	f.tr.spanAt("corpus.Collector.Merge", f.parent, "", t0, t1)
}

// stackTotals sums the layer stack over its nights.
type stackTotals struct {
	runs                 int
	none, inline, record time.Duration
	noneAlloc            uint64
	goroutines, steps    int
	replay               time.Duration
	events               int
	traceBytes           int
	sortCalls            int
	sort                 time.Duration
	hashCalls            int
	hash                 time.Duration
	fold, appendT, diffT time.Duration
	diffs                int
	serial, parallel     time.Duration
	nights               int
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// layerStack re-runs nights of the nightly workload one layer at a
// time: the scheduler alone, then the fasttrack detector, then
// recording, then report sorting and hashing, then the corpus fold,
// then the store append and diff; and the same night serially and at
// full parallelism. The nights, fixes included, are those of the
// measured loop's first cycle.
func layerStack(b *bench) error {
	c, err := newCycle(b, cycleSeed(b, 1), "stack")
	if err != nil {
		return err
	}
	defer c.store.Close()
	var s stackTotals
	prev := ""
	for k := 0; k < cycleNights; k++ {
		runID := fmt.Sprintf("night-%04d", k)
		seed := c.rng.Int63()
		root, end := b.tr.open("layer-stack.night", 0, runID)
		units := nightUnits(c.repo, seed, "", true)
		racy := racyUnits(c.repo)

		// sched alone, then + fasttrack inline, then + recording, in
		// interleaved rounds so that drift in the machine's speed falls
		// on every layer alike.
		var recorded []*core.Outcome
		for round := 0; round < stackRounds; round++ {
			for _, layer := range []struct {
				span, det string
				record    bool
				sum       *time.Duration
			}{
				{"core.Worker.RunSeed/none", "none", false, &s.none},
				{"core.Worker.RunSeed/fasttrack", "fasttrack", false, &s.inline},
				{"core.Worker.RunSeed/fasttrack+record", "fasttrack", true, &s.record},
			} {
				w, err := core.NewRunner(core.WithDetector(layer.det), core.WithMaxSteps(nightMaxSteps),
					core.WithRecord(layer.record)).NewWorker()
				if err != nil {
					end()
					return err
				}
				a0 := allocated()
				for _, u := range units {
					t0 := time.Now()
					out, err := w.RunSeed(u.Program, u.BaseSeed)
					t1 := time.Now()
					if err != nil {
						end()
						return err
					}
					b.tr.spanAt(layer.span, root, "", t0, t1)
					*layer.sum += t1.Sub(t0)
					if round > 0 {
						continue
					}
					if layer.det == "none" {
						s.goroutines += out.Result.Goroutines
						s.steps += out.Result.Steps
					}
					if layer.record {
						recorded = append(recorded, out)
					}
				}
				if round == 0 && layer.det == "none" {
					s.noneAlloc += allocated() - a0
				}
			}
		}
		s.runs += len(units)

		// detector per event: fasttrack replaying the recorded traces.
		for _, out := range recorded {
			d, err := detector.New(detector.DefaultName)
			if err != nil {
				end()
				return err
			}
			t0 := time.Now()
			out.Trace.Replay(d)
			t1 := time.Now()
			b.tr.spanAt("trace.Recorder.Replay", root, "fasttrack", t0, t1)
			s.replay += t1.Sub(t0)
			s.events += len(out.Trace.Events)
			var cw countingWriter
			b.tr.timed("trace.Recorder.Save", root, "", func() { err = out.Trace.Save(&cw) })
			if err != nil {
				end()
				return err
			}
			s.traceBytes += cw.n
		}

		// report: sorting each run's races, then hashing each of them.
		for _, out := range recorded {
			if len(out.Races) == 0 {
				continue
			}
			rs := append([]report.Race(nil), out.Races...)
			t0 := time.Now()
			report.SortRaces(rs)
			t1 := time.Now()
			b.tr.spanAt("report.SortRaces", root, "", t0, t1)
			s.sort += t1.Sub(t0)
			s.sortCalls++
			t0 = time.Now()
			for _, r := range rs {
				_ = r.Hash()
			}
			t1 = time.Now()
			b.tr.spanAt("report.Race.Hash", root, "", t0, t1)
			s.hash += t1.Sub(t0)
			s.hashCalls += len(rs)
		}

		// corpus fold through the sweep engine, as RunNightly does.
		sweepID, sweepEnd := b.tr.open("sweep.Engine.Run", root, "")
		aggs, _, err := sweep.New().Run(units, func() sweep.Aggregator {
			return &timedFold{c: corpus.NewCollector(runID, corpus.WithRunLabel("nightly")), tr: b.tr, parent: sweepID}
		})
		sweepEnd()
		if err != nil {
			end()
			return err
		}
		fold := aggs[0].(*timedFold)
		s.fold += fold.busy
		found := map[string]bool{}
		for _, rec := range fold.c.Records() {
			b.check(racy[rec.Unit], "%s: defect %s reported on race-free test %s", runID, rec.Key, rec.Unit)
			found[rec.Unit] = true
		}

		// corpus append and diff.
		t0 := time.Now()
		err = fold.c.AppendTo(c.store)
		t1 := time.Now()
		if err != nil {
			end()
			return err
		}
		b.tr.spanAt("corpus.Collector.AppendTo", root, "", t0, t1)
		s.appendT += t1.Sub(t0)
		if prev != "" {
			t0 = time.Now()
			_, err = c.store.Diff(prev, runID)
			t1 = time.Now()
			if err != nil {
				end()
				return err
			}
			b.tr.spanAt("corpus.Store.Diff", root, "", t0, t1)
			s.diffT += t1.Sub(t0)
			s.diffs++
		}
		prev = runID

		// sweep: the same night serially and at full parallelism.
		for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
			t0 := time.Now()
			_, _, err := sweep.New(sweep.WithParallelism(par)).Run(units, func() sweep.Aggregator {
				return corpus.NewCollector(runID)
			})
			t1 := time.Now()
			if err != nil {
				end()
				return err
			}
			b.tr.spanAt(fmt.Sprintf("sweep.Engine.Run/p%d", par), root, "", t0, t1)
			if par == 1 {
				s.serial += t1.Sub(t0)
			} else {
				s.parallel += t1.Sub(t0)
			}
		}
		end()
		s.nights++
		b.attempted += len(units)
		c.fix(found)
	}
	if fi, err := os.Stat(c.path); err == nil {
		b.layer("corpus.store_bytes", float64(fi.Size()))
	}

	runs := float64(s.runs)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	s.none, s.inline, s.record = s.none/stackRounds, s.inline/stackRounds, s.record/stackRounds
	b.layer("sched.run_us", us(s.none)/runs)
	b.layer("sched.alloc_b_per_run", float64(s.noneAlloc)/runs)
	b.layer("sched.goroutines_per_run", float64(s.goroutines)/runs)
	b.layer("sched.steps_per_run", float64(s.steps)/runs)
	b.layer("trace.record_us", us(s.record-s.inline)/runs)
	b.layer("trace.bytes_per_event", float64(s.traceBytes)/float64(s.events))
	b.layer("detector.ns_per_event", float64(s.replay)/float64(s.events))
	b.layer("report.sort_us", us(s.sort)/float64(s.sortCalls))
	b.layer("report.hash_ns", float64(s.hash)/float64(s.hashCalls))
	b.layer("corpus.fold_ms", ms(s.fold)/float64(s.nights))
	b.layer("corpus.append_ms", ms(s.appendT)/float64(s.nights))
	b.layer("corpus.diff_ms", ms(s.diffT)/float64(max(s.diffs, 1)))
	b.layer("sweep.speedup", s.serial.Seconds()/s.parallel.Seconds())

	b.note("layer stack over %d nights of %d runs (%.0f events/run recorded):", s.nights, s.runs/s.nights, float64(s.events)/runs)
	b.note("  %-34s %10.2f us/run", "sched alone (detector none)", us(s.none)/runs)
	b.note("  %-34s %10.2f us/run  (+%.2f over sched alone)", "+ fasttrack inline", us(s.inline)/runs, us(s.inline-s.none)/runs)
	b.note("  %-34s %10.2f us/run  (+%.2f over fasttrack inline)", "+ recording", us(s.record)/runs, us(s.record-s.inline)/runs)
	b.note("  %-34s %10.2f us/call over %d calls", "report.SortRaces", us(s.sort)/float64(s.sortCalls), s.sortCalls)
	b.note("  %-34s %10.2f ms/night (Observe+Merge, summed over workers)", "corpus fold", ms(s.fold)/float64(s.nights))
	b.note("  %-34s %10.2f ms/night, diff %.2f ms", "corpus append", ms(s.appendT)/float64(s.nights), ms(s.diffT)/float64(max(s.diffs, 1)))
	b.note("  sweep speedup %.2fx = serial %.0f ms / parallel(%d) %.0f ms (base: parallel)",
		s.serial.Seconds()/s.parallel.Seconds(), ms(s.serial), runtime.GOMAXPROCS(0), ms(s.parallel))
	b.note("  detector share of a recorded run: %.1f%% = (inline - sched) / inline (base: fasttrack inline run)",
		100*float64(s.inline-s.none)/float64(s.inline))
	return nil
}
