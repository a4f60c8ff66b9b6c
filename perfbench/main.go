// Command perfbench is the gorace benchmark. It runs one workload
// against the repository's packages, timing calls into each layer's
// public functions from outside, checks the outputs against references
// that do not come from the detector under test, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the root of a checkout through the wrapper, which builds
// it first:
//
//	bash perfbench/run.sh --workload nightly --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records spans around every layer call, prints a per-layer table
// and reports the per-layer metrics, including the tracing overhead.
// --read-rate changes the service workload's read rate, which is how
// its saturation was measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports all of them; BENCHMARK.json and perfbench/baseline.json say
// what each one means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"heap_mib", "MiB"},
	{"alloc_b_per_op", "B"},
	{"detected_frac", "frac"},
	{"ok_frac", "frac"},
}

// perLayer lists the metrics of single layers, reported by the traced
// run. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"sched.run_us", "us"},
	{"sched.alloc_b_per_run", "B"},
	{"sched.goroutines_per_run", "count"},
	{"sched.steps_per_run", "count"},
	{"trace.record_us", "us"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.bytes_per_event", "B"},
	{"detector.ns_per_event", "ns"},
	{"detector.evictions", "count"},
	{"detector.reloads", "count"},
	{"detector.reload_frac", "frac"},
	{"detector.promotions", "count"},
	{"report.sort_us", "us"},
	{"report.hash_ns", "ns"},
	{"corpus.fold_ms", "ms"},
	{"corpus.append_ms", "ms"},
	{"corpus.diff_ms", "ms"},
	{"corpus.store_bytes", "B"},
	{"sweep.speedup", "x"},
	{"nightly.runs_per_s", "1/s"},
	{"nightly.night_p50_ms", "ms"},
	{"stream.page_budget", "count"},
	{"stream.defects_folded", "count"},
	{"service.read_p50_ms", "ms"},
	{"service.read_tail_ms", "ms"},
	{"service.stats_p50_ms", "ms"},
	{"service.races_p50_ms", "ms"},
	{"service.race_p50_ms", "ms"},
	{"service.diff_p50_ms", "ms"},
	{"service.replay_p50_ms", "ms"},
	{"service.cache_hit_frac", "frac"},
	{"service.miss_p50_ms", "ms"},
	{"service.publish_s", "s"},
	{"service.job_s", "s"},
	{"service.job_queue_ms", "ms"},
	{"service.job_run_ms", "ms"},
	{"service.refused", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// bench is the state of one benchmark run.
type bench struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// readRate is the service workload's open-loop read rate, per
	// second; --read-rate changes it to measure saturation.
	readRate float64
	work     string // scratch directory inside the checkout
	tr       *tracer

	e2e    map[string]float64
	layers map[string]float64
	notes  []string // per-layer lines printed by the traced run

	mu        sync.Mutex // guards failed and problems, which load workers share
	attempted int
	failed    int
	problems  []string
}

// check counts a correctness check; a failed one fails the run. Load
// workers call it concurrently.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if !ok {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (b *bench) metric(name string, v float64) { b.e2e[name] = v }

// setup repeats a workload's set-up until it has run at least
// setupRuns times and for at least setupMin in all (at most setupMax
// times), and reports the median as setup_s. Each step times the part
// that counts as set-up and returns it. A collection runs before each
// step, outside its timing, so no step pays for the garbage of the
// one before.
func (b *bench) setup(step func(i int) (time.Duration, error)) error {
	var secs []float64
	var total time.Duration
	for i := 0; i < setupRuns || (total < setupMin && i < setupMax); i++ {
		runtime.GC()
		d, err := step(i)
		if err != nil {
			return err
		}
		total += d
		secs = append(secs, d.Seconds())
	}
	fmt.Printf("set-up times (%d, spread %.3f): %.4f s\n", len(secs), spread(secs), secs)
	b.metric("setup_s", median(secs))
	return nil
}
func (b *bench) layer(name string, v float64) { b.layers[name] = v }

// note adds a line to the traced run's per-layer report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*bench) error{
	"nightly": runNightly,
	"stream":  runStream,
	"service": runService,
}

// A workload sets up at least setupRuns times and for at least
// setupMin in all, but no more than setupMax times; setup_s is the
// median.
const (
	setupRuns = 7
	setupMin  = 2 * time.Second
	setupMax  = 61
)

// defaultSeed is the benchmark's default seed; seed 7919 was kept out
// of tuning and is held out to confirm a claimed change.
const defaultSeed = 1

func main() {
	workload := flag.String("workload", "nightly", "workload: nightly, stream or service")
	seed := flag.Int64("seed", defaultSeed, "workload seed; drives every generated input")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	work := flag.String("work", ".bench_build/work", "scratch directory for stores and traces")
	readRate := flag.Float64("read-rate", defaultReadRate, "service workload: reads per second, to measure saturation")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *readRate <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload nightly|stream|service, --seconds >= 1, --trace 0|1, --read-rate > 0\n")
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b := &bench{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		readRate: *readRate,
		work:     dir,
		tr:       newTracer(*traceFlag == 1),
		e2e:      map[string]float64{},
		layers:   map[string]float64{},
	}
	err := run(b)
	if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if b.traced {
		spans := filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := b.tr.write(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("== %s: per-layer self time from %d spans (written to %s)\n", *workload, len(b.tr.spans), spans)
		b.tr.printLayers(os.Stdout)
		for _, n := range b.notes {
			fmt.Println(n)
		}
	}
	os.Exit(b.finish(os.Stdout, *workload))
}

// finish checks that every declared metric was measured and is
// finite, sets ok_frac from the checks, prints every metric by name
// with its unit to w, then the result line, and returns the exit code.
func (b *bench) finish(w io.Writer, workload string) int {
	if b.attempted < 1 {
		b.attempted = 1
		b.check(false, "no operation was attempted")
	}
	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layers
	}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		v, ok := vals[d.name]
		if !ok && !b.traced && d.name != "ok_frac" {
			b.check(false, "metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.check(false, "metric %s is %v", d.name, v)
			vals[d.name] = 0
		}
	}
	var extra []string
	for name := range vals {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		b.check(false, "metric %s is not declared", name)
	}
	// Every check has run: ok_frac is the last metric set.
	b.metric("ok_frac", 1-float64(b.failed)/float64(b.attempted))

	out := map[string]map[string]any{}
	fmt.Fprintf(w, "== %s seed %d (GOMAXPROCS %d, %s)\n", workload, b.seed, runtime.GOMAXPROCS(0), runtime.Version())
	for _, d := range defs {
		v := vals[d.name]
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	correct := b.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !correct {
		return 1
	}
	return 0
}
