package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/monorepo"
	"gorace/internal/patterns"
	"gorace/internal/service"
	"gorace/internal/sweep"
)

// The service workload: an in-process raced over loopback HTTP,
// serving a store built during set-up from nightly nights with saved
// traces. Reads arrive in an open loop at a fixed rate; beside them a
// periodic POST /v1/nightly flips the snapshot generation (emptying
// the response cache for the reads after it), and periodic campaign
// jobs are submitted and polled until done.
const (
	svcServices  = 10
	svcTests     = 20
	svcNights    = 4                     // nights in the set-up store
	publishEvery = 4 * time.Second       // POST /v1/nightly
	jobEvery     = 4 * time.Second       // POST /v1/jobs
	pollEvery    = 10 * time.Millisecond // GET /v1/jobs/{id} while a job runs
	raceKeys     = 64                    // distinct ids asked of /v1/races/{id}
	replayKeys   = 24                    // distinct ids asked of /v1/replay/{id}
	window       = 4 * time.Second       // for the read tail and the traced run
	warmUp       = 2 * window            // load before measuring: see runService
	jobsDeadline = 60 * time.Second
)

// defaultReadRate is the open loop's read rate, in reads per second.
// A --read-rate sweep on a 2-vCPU virtual machine held the median read
// latency near 0.65 ms from 500 up to 12000 reads/s and saw it first
// rise, to 0.97 ms, at 16000, so 2000 is well below saturation. At 500
// reads/s the CPU per request was 1.7 times that at 2000, the extra
// being the runtime's wake-ups between requests, and it swung with the
// host: in interleaved runs of the same seeds (with an earlier load
// generator that kept every answer) the CPU per request ranged over a
// tenth at 500/s and over 3% at 2000/s. perfbench/baseline.json
// records the sweep.
const defaultReadRate = 2000

// svcEnv is one running service and what the load needs to know of it.
type svcEnv struct {
	dir    string
	store  *corpus.Store
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	repo   *monorepo.Repo
	keys   []string // ids for /v1/races/{id}
	replay []string // ids with a saved trace, for /v1/replay/{id}
	runs   []string // run ids recorded during set-up
}

// setupService builds the store from nightly nights with saved traces
// and starts the server on a loopback port.
func setupService(b *bench, name string) (*svcEnv, error) {
	e := &svcEnv{dir: filepath.Join(b.work, name)}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	store, err := corpus.Open(filepath.Join(e.dir, "corpus.db"))
	if err != nil {
		return nil, err
	}
	e.store = store
	rng := rand.New(rand.NewSource(b.seed))
	e.repo = exactRepo(rng)
	traces := filepath.Join(e.dir, "traces")
	for k := 0; k < svcNights; k++ {
		runID := fmt.Sprintf("night-%04d", k)
		units := nightUnits(e.repo, rng.Int63(), "", true)
		aggs, _, err := sweep.New().Run(units, func() sweep.Aggregator {
			return corpus.NewCollector(runID, corpus.WithRunLabel("nightly"), corpus.WithTraceDir(traces))
		})
		if err != nil {
			return nil, err
		}
		if err := aggs[0].(*corpus.Collector).AppendTo(store); err != nil {
			return nil, err
		}
		e.runs = append(e.runs, runID)
	}
	recs := store.Records()
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	for _, rec := range recs {
		if len(e.keys) < raceKeys {
			e.keys = append(e.keys, rec.Key)
		}
		if rec.TracePath != "" && len(e.replay) < replayKeys {
			e.replay = append(e.replay, rec.Key)
		}
	}
	if len(e.keys) == 0 || len(e.replay) == 0 {
		return nil, fmt.Errorf("set-up store has %d records, %d with traces; need both", len(e.keys), len(e.replay))
	}
	// One job at a time on one core, so a campaign leaves the other
	// core to the reads.
	e.srv, err = service.New(service.Config{Store: store, Repo: e.repo, JobWorkers: 1, JobParallelism: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// exactRepo generates the served monorepo with exactly nightRacy of its
// tests racy, the racy ones drawn from rng. Generate flips a coin per
// test instead, and on a repo this small the racy count, and with it
// the store every read serves, would swing from seed to seed.
func exactRepo(rng *rand.Rand) *monorepo.Repo {
	r := monorepo.Generate(svcServices, svcTests, 1, rng.Int63())
	var tests [][2]string
	for _, svc := range r.Services {
		for _, t := range svc.Tests {
			tests = append(tests, [2]string{svc.Name, t.Name})
		}
	}
	fixed := len(tests) - int(float64(len(tests))*nightRacy+0.5)
	for _, i := range rng.Perm(len(tests))[:fixed] {
		r.Fix(tests[i][0], tests[i][1])
	}
	return r
}

// close stops the HTTP server and the service, and waits for both.
func (e *svcEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if derr := e.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	if cerr := e.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// op is one scheduled request.
type op struct {
	due  time.Time
	kind string // stats, races, race, diff, replay, publish, submit, poll
	path string
	body []byte
	key  string // race id asked for, or run id published
	job  *jobTrack
}

type opHeap []*op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(*op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// jobTrack follows one submitted job through its polled states.
type jobTrack struct {
	id                     string
	submitted              time.Time
	firstRunning, doneSeen time.Time
	state                  string
}

// sample is one completed read.
type sample struct {
	kind    string
	cache   string
	latency float64 // ms from due
	due     time.Time
}

// loadResult is what one load phase measured. Workers record into it
// concurrently: loop and calls lock themselves, mu guards the rest.
type loadResult struct {
	loop      openLoop
	calls     tally
	mu        sync.Mutex
	start     time.Time
	span      time.Duration // how long reads were scheduled for
	lastRead  time.Time     // when the last read completed
	reads     []sample
	publishes []float64 // s
	jobs      []*jobTrack
	found     int
	racy      int
	published []string
	requests  int
	alloc     uint64
	cpu       time.Duration // process CPU time over the phase
	heapMiB   float64       // median of the marked-live heap sampled every 2 ms
}

// tracedAt reports whether a request due at t falls in a traced
// window. The traced run alternates untraced and traced windows inside
// one load phase, so both see the same store, cache and host state.
func (r *loadResult) tracedAt(t time.Time) bool {
	return int(t.Sub(r.start)/window)%2 == 1
}

// schedule makes the phase's fixed part in due order: reads at rate,
// a publish every publishEvery and a job every jobEvery, all drawn from
// rng. It makes each op only when the dispatcher asks for it, so the
// load generator holds no schedule in memory: the heap the run reports
// is the service's. Reads spread uniformly over the five read
// endpoints, as scripts/serviceload spreads its requests over its
// paths.
type schedule struct {
	e                 *svcEnv
	rng               *rand.Rand
	start             time.Time
	d                 time.Duration
	rate              float64
	ids               []string
	reads, pubs, jobs int   // ops made so far of each kind
	order             []int // the order jobs take the patterns in
	next              *op   // made but not yet taken
}

func newSchedule(e *svcEnv, rng *rand.Rand, start time.Time, d time.Duration, rate float64) *schedule {
	return &schedule{e: e, rng: rng, start: start, d: d, rate: rate, ids: patterns.IDs()}
}

// peek returns the next op without taking it, or nil when the phase
// has no more.
func (s *schedule) peek() *op {
	if s.next == nil {
		s.next = s.build()
	}
	return s.next
}

// take returns the next op and moves past it, or nil at the end.
func (s *schedule) take() *op {
	o := s.peek()
	s.next = nil
	return o
}

// build makes the earliest op not yet made; at equal due times a read
// comes before a publish, and a publish before a job.
func (s *schedule) build() *op {
	read := time.Duration(float64(s.reads) / s.rate * float64(time.Second))
	pub := publishEvery/2 + time.Duration(s.pubs)*publishEvery
	job := jobEvery/4 + time.Duration(s.jobs)*jobEvery
	switch {
	case s.reads < int(s.d.Seconds()*s.rate) && read <= pub && read <= job:
		s.reads++
		return s.read(s.start.Add(read))
	case pub < s.d && pub <= job:
		runID := fmt.Sprintf("pub-%04d", s.pubs)
		s.pubs++
		// Maps of strings and numbers always marshal.
		body, _ := json.Marshal(map[string]any{"runId": runID, "seed": s.rng.Int63()})
		return &op{due: s.start.Add(pub), kind: "publish", path: "/v1/nightly", body: body, key: runID}
	case job < s.d:
		// Jobs take the catalogue's patterns four at a time in one
		// seeded order, so a run's jobs cover most of the catalogue and
		// their total work changes little from seed to seed.
		if s.order == nil {
			s.order = s.rng.Perm(len(s.ids))
		}
		var pats []string
		for i := 0; i < 4; i++ {
			pats = append(pats, s.ids[s.order[(4*s.jobs+i)%len(s.ids)]])
		}
		s.jobs++
		body, _ := json.Marshal(map[string]any{"patterns": pats, "seeds": 20, "baseSeed": s.rng.Int63n(1 << 30)})
		return &op{due: s.start.Add(job), kind: "submit", path: "/v1/jobs", body: body}
	}
	return nil
}

// read draws one read due at due.
func (s *schedule) read(due time.Time) *op {
	e, rng := s.e, s.rng
	o := &op{due: due}
	switch rng.Intn(5) {
	case 0:
		o.kind, o.path = "stats", "/v1/stats"
	case 1:
		o.kind = "races"
		switch rng.Intn(3) {
		case 0:
			o.path = "/v1/races"
		case 1:
			o.path = "/v1/races?sort=count&limit=20"
		default:
			o.path = "/v1/races?limit=10&run=" + e.runs[rng.Intn(len(e.runs))]
		}
	case 2:
		o.kind, o.key = "race", e.keys[rng.Intn(len(e.keys))]
		o.path = "/v1/races/" + o.key
	case 3:
		k := rng.Intn(len(e.runs) - 1)
		o.kind, o.path = "diff", "/v1/diff?a="+e.runs[k]+"&b="+e.runs[k+1]
	default:
		o.kind = "replay"
		o.path = "/v1/replay/" + e.replay[rng.Intn(len(e.replay))]
	}
	return o
}

// loadPhase runs the open loop for warm and then for d: one dispatcher
// hands each op to one of nproc workers when it falls due, each worker
// with a single connection. Polls of running jobs are scheduled as
// submits return. Every answer is checked, but only the part after the
// warm-up is measured.
func loadPhase(b *bench, e *svcEnv, rng *rand.Rand, warm, d time.Duration) *loadResult {
	res := &loadResult{}
	racy := racyUnits(e.repo)
	for _, r := range racy {
		if r {
			res.racy++
		}
	}
	workers := runtime.NumCPU()
	begin := time.Now().Add(50 * time.Millisecond)
	start := begin.Add(warm)
	res.start, res.span = start, d
	static := newSchedule(e, rng, begin, warm+d, b.readRate)
	// The measured reads' samples are allocated before measuring starts,
	// so their growth does not show in the heap the run reports.
	n := int(d.Seconds() * b.readRate)
	res.reads = make([]sample, 0, n)
	res.loop.latency, res.loop.lag = make([]float64, 0, n), make([]float64, 0, n)
	var mu sync.Mutex
	var polls opHeap
	pending := 0 // jobs submitted and not yet seen done or failed

	type job struct {
		o    *op
		sent time.Time
	}
	work := make(chan job)
	var wg sync.WaitGroup
	// At the end of the warm-up, note the CPU time and allocation so far
	// and start watching the heap.
	type mark struct {
		cpu   time.Duration
		alloc uint64
		live  *heapPeak
	}
	measuring := make(chan mark, 1)
	go func() {
		time.Sleep(time.Until(start))
		measuring <- mark{cpuTime(), allocated(), watchHeap()}
	}()
	for i := 0; i < workers; i++ {
		client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer client.CloseIdleConnections()
			for j := range work {
				if more := runOp(b, e, client, j.o, j.sent, res, racy); more != nil {
					mu.Lock()
					heap.Push(&polls, more)
					mu.Unlock()
				} else if j.o.kind == "poll" || j.o.kind == "submit" {
					mu.Lock()
					pending--
					mu.Unlock()
				}
			}
		}()
	}

	deadline := start.Add(d + jobsDeadline)
	for {
		mu.Lock()
		var o *op
		if polls.Len() > 0 && (static.peek() == nil || polls[0].due.Before(static.peek().due)) {
			o = heap.Pop(&polls).(*op)
		} else if o = static.take(); o != nil && o.kind == "submit" {
			pending++
		}
		waiting := pending
		mu.Unlock()
		if o == nil && waiting == 0 {
			break
		}
		if o == nil {
			if time.Now().After(deadline) {
				b.check(false, "%d jobs still not done %v after the load ended", waiting, jobsDeadline)
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		work <- job{o: o, sent: time.Now()}
	}
	close(work)
	wg.Wait()
	m := <-measuring
	res.alloc = allocated() - m.alloc
	res.cpu = cpuTime() - m.cpu
	// The heap the last collection marked live, the median of its
	// readings: what the service holds under load. The heap's objects
	// between collections rise with allocation until the next one, and
	// how far depends on how long marking takes: on a 2-vCPU virtual
	// machine their 90th percentile moved by a tenth between runs of the
	// same code, as the host's load changed, while this moved by 3%.
	res.heapMiB = median(m.live.stopSamples().marked)
	return res
}

// runOp sends one request, records it, and checks the answer. For a
// submitted or still-running job it returns the next poll to schedule.
func runOp(b *bench, e *svcEnv, c *http.Client, o *op, sent time.Time, res *loadResult, racy map[string]bool) *op {
	method := http.MethodGet
	var body io.Reader
	if o.body != nil {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, e.base+o.path, body)
	if err != nil {
		panic(err) // paths are built by schedule; a bad one is a bug here
	}
	resp, err := c.Do(req)
	var payload []byte
	status := 0
	if err == nil {
		// Only answers the checks parse are kept; the rest are read
		// through a pooled buffer, so the load generator's allocation
		// stays out of the figures the run reports.
		if o.kind == "stats" || o.kind == "races" || o.kind == "diff" || o.kind == "replay" {
			_, err = io.Copy(io.Discard, resp.Body)
		} else {
			payload, err = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
		status = resp.StatusCode
	}
	done := time.Now()
	want := http.StatusOK
	if o.kind == "submit" {
		want = http.StatusAccepted
	}
	res.mu.Lock()
	if !done.Before(res.start) {
		res.requests++
	}
	res.mu.Unlock()
	ok := b.answered(&res.calls, method+" "+o.path, status, want, err)
	cache := ""
	if resp != nil {
		cache = resp.Header.Get("X-Cache")
	}
	if res.tracedAt(o.due) {
		b.tr.spanAt("service."+o.kind, 0, "cache="+cache, sent, done)
	}

	switch o.kind {
	case "publish":
		res.mu.Lock()
		res.publishes = append(res.publishes, done.Sub(sent).Seconds())
		res.mu.Unlock()
		if !ok {
			return nil
		}
		var n struct {
			RunID     string   `json:"runId"`
			New       []string `json:"new"`
			Recurring []string `json:"recurring"`
		}
		if !b.check(json.Unmarshal(payload, &n) == nil && n.RunID == o.key, "publish %s: bad answer", o.key) {
			return nil
		}
		found := map[string]bool{}
		for _, k := range append(n.New, n.Recurring...) {
			unit := k[:strings.LastIndexByte(k, '/')]
			if b.check(racy[unit], "publish %s: defect %s on race-free test %s", o.key, k, unit) {
				found[unit] = true
			}
		}
		res.mu.Lock()
		res.found += len(found)
		res.published = append(res.published, o.key)
		res.mu.Unlock()
		return nil
	case "submit":
		var s struct {
			ID string `json:"id"`
		}
		if !ok || !b.check(json.Unmarshal(payload, &s) == nil && s.ID != "", "submit: bad answer %q", payload) {
			return nil
		}
		jt := &jobTrack{id: s.ID, submitted: sent, state: "queued"}
		res.mu.Lock()
		res.jobs = append(res.jobs, jt)
		res.mu.Unlock()
		return &op{due: done.Add(pollEvery), kind: "poll", path: "/v1/jobs/" + s.ID, job: jt}
	case "poll":
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if !ok || !b.check(json.Unmarshal(payload, &st) == nil, "poll %s: bad answer", o.job.id) {
			return nil
		}
		jt := o.job
		if st.State != "queued" && jt.firstRunning.IsZero() {
			jt.firstRunning = done
		}
		jt.state = st.State
		switch st.State {
		case "done":
			jt.doneSeen = done
			b.tr.spanAt("service.job.queued", 0, jt.id, jt.submitted, jt.firstRunning)
			b.tr.spanAt("service.job.running", 0, jt.id, jt.firstRunning, jt.doneSeen)
			return nil
		case "failed":
			b.check(false, "job %s failed: %s", jt.id, st.Error)
			return nil
		}
		return &op{due: done.Add(pollEvery), kind: "poll", path: o.path, job: jt}
	}
	// A read; one due in the warm-up is checked but not measured.
	if !o.due.Before(res.start) {
		res.loop.observe(o.due, sent, done)
		res.mu.Lock()
		res.reads = append(res.reads, sample{kind: o.kind, cache: cache, latency: ms(done.Sub(o.due)), due: o.due})
		if done.After(res.lastRead) {
			res.lastRead = done
		}
		res.mu.Unlock()
	}
	if ok && o.kind == "race" {
		var r struct {
			Race struct {
				Key string `json:"key"`
			} `json:"race"`
		}
		b.check(json.Unmarshal(payload, &r) == nil && r.Race.Key == o.key,
			"/v1/races/%s answered key %q", o.key, r.Race.Key)
	}
	return nil
}

// finalChecks asks /v1/stats for the run history: every published run
// id must be there, and every job must have reached done.
func finalChecks(b *bench, e *svcEnv, res *loadResult) error {
	resp, err := http.Get(e.base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st struct {
		RunHistory []struct {
			ID string `json:"id"`
		} `json:"runHistory"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, r := range st.RunHistory {
		seen[r.ID] = true
	}
	for _, id := range res.published {
		b.check(seen[id], "published run %s is missing from /v1/stats", id)
	}
	for _, jt := range res.jobs {
		b.check(jt.state == "done", "job %s ended %s, want done", jt.id, jt.state)
	}
	b.attempted += res.calls.attempted
	return nil
}

// setupServices times the service set-up through b.setup, closing
// each service but the last, which it returns running.
func setupServices(b *bench) (*svcEnv, error) {
	var e *svcEnv
	err := b.setup(func(i int) (time.Duration, error) {
		if e != nil {
			if err := e.close(); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(e.dir); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		var err error
		e, err = setupService(b, fmt.Sprintf("setup%d", i))
		return time.Since(t0), err
	})
	if err != nil && e != nil {
		e.close()
	}
	return e, err
}

func runService(b *bench) error {
	// Set-up: build the store and start the server; the last one
	// serves the load.
	e, err := setupServices(b)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))

	// The first two windows of load cost a tenth to a fifth more CPU
	// per request than the later ones while the caches and the heap
	// settle, so they run before the measurement starts.
	gc := readGC()
	res := loadPhase(b, e, rng, warmUp, b.seconds)
	err = finalChecks(b, e, res)
	if b.traced {
		// Reads in untraced windows against reads in traced ones: the
		// difference in their median latency is the tracing overhead.
		var plain, traced []float64
		for _, s := range res.reads {
			if res.tracedAt(s.due) {
				traced = append(traced, s.latency)
			} else {
				plain = append(plain, s.latency)
			}
		}
		pp, tp := median(plain), median(traced)
		b.layer("bench.trace_overhead_frac", tp/pp-1)
		b.note("tracing overhead: read p50 %.3f ms over %d traced reads vs %.3f ms over %d untraced, in alternating %v windows (base: untraced)",
			tp, len(traced), pp, len(plain), window)
	}
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	gc.since(b)
	if fi, err := os.Stat(filepath.Join(e.dir, "corpus.db")); err == nil {
		b.layer("corpus.store_bytes", float64(fi.Size()))
	}

	lat := res.loop.latency
	// CPU time per request, server and load generator together: the
	// open loop fixes the rate, and on a shared host the read latency
	// tail measures the hypervisor's pauses as much as the service, so
	// the latencies are reported per layer instead.
	cpuPerOp := float64(res.cpu) / float64(time.Microsecond) / float64(res.requests)
	b.metric("cpu_us_per_op", cpuPerOp)
	tails, p := windowTails(res)
	all, allP := tail(lat)
	fmt.Printf("service: read p50 %.3f ms; p%g of each %v window, in ms: %.2f; p%g of the run %.2f ms\n",
		median(lat), 100*p, window, tails, 100*allP, all)
	b.metric("heap_mib", res.heapMiB)
	b.metric("alloc_b_per_op", float64(res.alloc)/float64(res.requests))
	b.metric("detected_frac", float64(res.found)/float64(res.racy*max(len(res.published), 1)))
	fmt.Printf("service: %d reads at %g/s (open loop, %d workers) in %.2f s, %d publishes, %d jobs, %d refused; %.1f us CPU per request\n",
		len(lat), b.readRate, runtime.NumCPU(), res.lastRead.Sub(res.start).Seconds(), len(res.publishes), len(res.jobs), res.calls.refused,
		cpuPerOp)
	serviceLayers(b, res)
	return nil
}

// windowTails returns the tail of the read latency in each full window
// of the phase, and the percentile it was read at. Reading the tail per
// window keeps one stall from setting the run's tail; a last, partial
// window is left out.
func windowTails(res *loadResult) ([]float64, float64) {
	full := int(res.span / window)
	byWindow := make([][]float64, max(full, 1))
	for _, s := range res.reads {
		w := int(s.due.Sub(res.start) / window)
		if full == 0 {
			w = 0
		}
		if w < len(byWindow) {
			byWindow[w] = append(byWindow[w], s.latency)
		}
	}
	var tails []float64
	p := 0.0
	for _, xs := range byWindow {
		var v float64
		v, p = tail(xs)
		tails = append(tails, v)
	}
	return tails, p
}

// serviceLayers derives the per-layer service metrics from a phase.
func serviceLayers(b *bench, res *loadResult) {
	tails, _ := windowTails(res)
	b.layer("service.read_p50_ms", median(res.loop.latency))
	b.layer("service.read_tail_ms", median(tails))
	by := map[string][]float64{}
	hits, misses := 0, []float64{}
	for _, s := range res.reads {
		by[s.kind] = append(by[s.kind], s.latency)
		switch s.cache {
		case "hit":
			hits++
		case "miss":
			misses = append(misses, s.latency)
		}
	}
	for _, k := range []string{"stats", "races", "race", "diff", "replay"} {
		b.layer("service."+k+"_p50_ms", median(by[k]))
	}
	b.layer("service.cache_hit_frac", float64(hits)/float64(len(res.reads)))
	b.layer("service.miss_p50_ms", median(misses))
	b.layer("service.publish_s", median(res.publishes))
	var jobS, queue, run []float64
	for _, jt := range res.jobs {
		if jt.doneSeen.IsZero() {
			continue
		}
		jobS = append(jobS, jt.doneSeen.Sub(jt.submitted).Seconds())
		queue = append(queue, ms(jt.firstRunning.Sub(jt.submitted)))
		run = append(run, ms(jt.doneSeen.Sub(jt.firstRunning)))
	}
	b.layer("service.job_s", median(jobS))
	b.layer("service.job_queue_ms", median(queue))
	b.layer("service.job_run_ms", median(run))
	b.layer("service.refused", float64(res.calls.refused))
	b.layer("loadgen.lag_p99_ms", percentile(res.loop.lag, 0.99))
	b.note("service: %d reads, cache hits %d/%d = %.3f (base: reads); job states polled every %v, so queue and run times are within one poll",
		len(res.reads), hits, len(res.reads), float64(hits)/float64(max(len(res.reads), 1)), pollEvery)
}
