package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gorace/internal/detector"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// Runner is the one way to run detection: it binds a registered
// detector, a scheduling strategy, and run limits, and executes
// modeled programs — one seed at a time (Run) or as a parallel
// multi-seed batch (RunBatch), the fleet-scale deployment mode the
// paper argues for. A Runner is immutable after construction and safe
// for concurrent use; every run builds fresh detector and strategy
// instances from the registries.
type Runner struct {
	detectorName    string
	strategyName    string
	strategyFactory func() sched.Strategy
	seed            int64
	maxSteps        int
	record          bool
	parallelism     int
	sampleRate      int
}

// Option configures a Runner.
type Option func(*Runner)

// WithDetector selects a registered detector by name (see
// detector.Names). Default: detector.DefaultName.
func WithDetector(name string) Option {
	return func(r *Runner) { r.detectorName = name }
}

// WithStrategy selects a registered scheduling strategy by name (see
// sched.StrategyNames). Default: sched.DefaultStrategyName.
func WithStrategy(name string) Option {
	return func(r *Runner) { r.strategyName = name }
}

// WithStrategyFactory supplies strategies programmatically, for the
// ones that need arguments a name cannot carry (replayed decision
// prefixes, recording wrappers). The factory is invoked once per run,
// possibly from concurrent batch workers. It overrides WithStrategy.
func WithStrategyFactory(f func() sched.Strategy) Option {
	return func(r *Runner) { r.strategyFactory = f }
}

// WithSeed sets the schedule seed for Run and the base seed for
// convenience sweeps; a fixed seed reproduces the run exactly.
func WithSeed(seed int64) Option {
	return func(r *Runner) { r.seed = seed }
}

// WithMaxSteps bounds each execution (0 = scheduler default).
func WithMaxSteps(n int) Option {
	return func(r *Runner) { r.maxSteps = n }
}

// WithRecord keeps the full event trace of each run for post-facto
// analysis (Outcome.Trace).
func WithRecord(record bool) Option {
	return func(r *Runner) { r.record = record }
}

// WithParallelism sets the worker count for RunBatch (default 1,
// i.e. serial). Runs are independent — detector and strategy state is
// per-run — so batch results are identical at any parallelism.
func WithParallelism(n int) Option {
	return func(r *Runner) { r.parallelism = n }
}

// WithSampleRate gates the detector behind a deterministic 1-in-n
// access-sampling filter (detector.WithSampleRate): sync events always
// reach the detector, accesses 1 in n. The gate's phase is derived
// from each run's seed, so sampled sweeps stay reproducible at any
// parallelism. n ≤ 1 disables sampling; negative n fails validation.
func WithSampleRate(n int) Option {
	return func(r *Runner) { r.sampleRate = n }
}

// NewRunner builds a Runner from options.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{parallelism: 1}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// newStrategy builds a fresh strategy instance for one run.
func (r *Runner) newStrategy() (sched.Strategy, error) {
	if r.strategyFactory != nil {
		s := r.strategyFactory()
		if s == nil {
			return nil, fmt.Errorf("strategy factory returned nil")
		}
		return s, nil
	}
	return sched.NewStrategy(r.strategyName)
}

// validate fails fast on unknown detector/strategy names, so a batch
// does not launch workers that would all error identically. A
// user-supplied strategy factory is deliberately NOT invoked here —
// WithStrategyFactory promises one invocation per run, and a stateful
// factory must not have a strategy consumed by validation.
func (r *Runner) validate() error {
	if _, err := r.newDetector(); err != nil {
		return err
	}
	if r.strategyFactory == nil {
		if _, err := sched.NewStrategy(r.strategyName); err != nil {
			return err
		}
	}
	return nil
}

// Run executes prog once under the Runner's seed.
func (r *Runner) Run(prog func(*sched.G)) (*Outcome, error) {
	return r.RunSeed(prog, r.seed)
}

// RunSeed executes prog once under the given seed.
func (r *Runner) RunSeed(prog func(*sched.G), seed int64) (*Outcome, error) {
	st, err := r.newRunState()
	if err != nil {
		return nil, err
	}
	return r.runSeed(st, prog, seed)
}

// runState is the per-worker detection state a batch sweep recycles
// across seeds: the detector instance (Reset in place between runs)
// and the reusable trace buffer for record mode. Recycling this state
// is what keeps a 1000-seed RunBatch from allocating a thousand
// detectors' worth of shadow memory.
type runState struct {
	det    detector.Detector
	buf    *trace.Recorder // lazily created, record mode only
	used   bool            // det has consumed a run since it was built
	shared bool            // state is recycled across runs (batch worker)
}

// newDetector builds the Runner's detector, sampling gate included.
func (r *Runner) newDetector() (detector.Detector, error) {
	return detector.New(r.detectorName, detector.WithSampleRate(r.sampleRate))
}

// newRunState builds a fresh detector for one run or, on a batch
// worker, for every run the worker makes: each detector resets in
// place, so recycling never rebuilds it.
func (r *Runner) newRunState() (*runState, error) {
	det, err := r.newDetector()
	if err != nil {
		return nil, err
	}
	return &runState{det: det}, nil
}

// runSeed executes prog once on st. Results never alias recycled
// state: races and candidates are copied out of a reused detector, and
// recorded traces are snapshotted out of the reused buffer.
func (r *Runner) runSeed(st *runState, prog func(*sched.G), seed int64) (*Outcome, error) {
	strat, err := r.newStrategy()
	if err != nil {
		return nil, err
	}
	det := st.det
	if st.used {
		det.Reset()
	}
	st.used = true
	if sd, ok := det.(detector.Seeded); ok {
		// A sampling gate's phase is a function of the run seed, not
		// of worker identity or scheduling order — this is what keeps
		// sampled batch results identical at any parallelism.
		sd.SetRunSeed(seed)
	}

	out := &Outcome{Detector: det.Name(), Strategy: strat.Name(), Seed: seed}
	var listeners []trace.Listener
	if r.record {
		if st.buf == nil {
			st.buf = &trace.Recorder{}
		}
		st.buf.Reset()
		listeners = append(listeners, st.buf)
	}
	if !detector.IsNoop(det) {
		// The none detector observes nothing; not attaching it keeps
		// the overhead baseline free of per-event dispatch cost.
		listeners = append(listeners, det)
	}

	out.Result = sched.Run(prog, sched.Options{
		Strategy:  strat,
		Seed:      seed,
		MaxSteps:  r.maxSteps,
		Listeners: listeners,
	})

	if r.record {
		if st.shared {
			out.Trace = st.buf.Snapshot()
		} else {
			// One-shot state: hand the recorder over instead of
			// copying it; it will not be reused.
			out.Trace = st.buf
			st.buf = nil
		}
	}
	out.Races = det.Races()
	out.Candidates = det.Candidates()
	if st.shared {
		// A shared (batch-worker) detector is reset before its next
		// run, which rewinds its result slices — so the outcome must
		// own copies. One-shot states discard the detector; aliasing
		// is fine.
		out.Races = append([]report.Race(nil), out.Races...)
		out.Candidates = append([]report.Race(nil), out.Candidates...)
	}
	out.Stats = det.Stats()
	if c, ok := det.(detector.Counter); ok {
		out.RaceCount = c.Count()
	}
	report.SortRaces(out.Races)
	report.SortRaces(out.Candidates)
	return out, nil
}

// Worker owns one recycled detection state bound to a Runner: the
// detector instance (Reset in place between runs) and the reusable
// trace buffer for record mode. A sweep that pushes many seeds through
// one Worker allocates one detector's worth of shadow memory, not one
// per seed. Workers are not safe for concurrent use; create one per
// goroutine. StreamBatch and the campaign engine in internal/sweep are
// both built on Workers.
type Worker struct {
	r  *Runner
	st *runState
}

// NewWorker validates the Runner's configuration and builds a recycled
// run state for one worker goroutine.
func (r *Runner) NewWorker() (*Worker, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	st, err := r.newRunState()
	if err != nil {
		return nil, err
	}
	st.shared = true
	return &Worker{r: r, st: st}, nil
}

// RunSeed executes prog once under the given seed on the recycled
// state. The returned Outcome owns its races, candidates, and trace —
// nothing aliases state a later RunSeed will rewind.
func (w *Worker) RunSeed(prog func(*sched.G), seed int64) (*Outcome, error) {
	return w.r.runSeed(w.st, prog, seed)
}

// BatchResult is one seed's result in a batch sweep, delivered in
// completion order by StreamBatch.
type BatchResult struct {
	Index   int   // position of Seed in the input slice
	Seed    int64 //
	Outcome *Outcome
	Err     error
}

// StreamBatch sweeps prog over seeds with WithParallelism workers and
// streams per-seed results as they complete (arbitrary order; use
// Index to reassemble). The channel closes when the sweep is done.
// Configuration errors surface on the first result.
//
// The channel's buffer holds the whole batch, so abandoning it early
// (e.g. breaking at the first racy seed) leaks no goroutines — but
// the remaining seeds still run to completion in the background; size
// the seed slice to the work actually wanted.
func (r *Runner) StreamBatch(prog func(*sched.G), seeds []int64) <-chan BatchResult {
	workers := r.parallelism
	if workers < 1 {
		workers = 1
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	ch := make(chan BatchResult, len(seeds))
	if len(seeds) == 0 {
		close(ch)
		return ch
	}
	if err := r.validate(); err != nil {
		ch <- BatchResult{Index: 0, Seed: seeds[0], Err: err} // buffered; cannot block
		close(ch)
		return ch
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker owns one recycled detection state: the
			// detector is Reset in place between seeds, so the
			// sweep's shadow memory, clocks, and trace buffer are
			// allocated once per worker, not once per seed.
			wk, err := r.NewWorker()
			if err != nil {
				// validate() ran before the workers started, so this
				// is unreachable short of a racing re-registration.
				wk = nil
			}
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(seeds) {
					return
				}
				var out *Outcome
				var runErr error
				if wk != nil {
					out, runErr = wk.RunSeed(prog, seeds[i])
				} else {
					out, runErr = r.RunSeed(prog, seeds[i])
				}
				ch <- BatchResult{Index: i, Seed: seeds[i], Outcome: out, Err: runErr}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// RunBatch sweeps prog over seeds and returns the outcomes in seed
// order. Outcomes are deterministic per seed, so the result does not
// depend on the parallelism level.
func (r *Runner) RunBatch(prog func(*sched.G), seeds []int64) ([]*Outcome, error) {
	outs := make([]*Outcome, len(seeds))
	var firstErr error
	for br := range r.StreamBatch(prog, seeds) {
		if br.Err != nil {
			if firstErr == nil {
				firstErr = br.Err
			}
			continue
		}
		outs[br.Index] = br.Outcome
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// DetectionProbability sweeps runs sequential seeds from the Runner's
// base seed and returns the fraction of runs in which at least one
// race manifested — the flakiness measure behind the paper's §3.2.1
// argument that PR-time (CI) dynamic race detection is a misfit. The
// sweep honors WithParallelism.
func (r *Runner) DetectionProbability(prog func(*sched.G), runs int) (float64, error) {
	if runs <= 0 {
		runs = 1
	}
	hits := 0
	var firstErr error
	for br := range r.StreamBatch(prog, Seeds(r.seed, runs)) {
		if br.Err != nil {
			if firstErr == nil {
				firstErr = br.Err
			}
			continue
		}
		if br.Outcome.HasRace() {
			hits++
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(hits) / float64(runs), nil
}

// Seeds returns the n sequential seeds base, base+1, ..., the standard
// shape of a multi-seed sweep.
func Seeds(base int64, n int) []int64 {
	if n < 0 {
		n = 0
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}
