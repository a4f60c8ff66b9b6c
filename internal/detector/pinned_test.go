package detector

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gorace/internal/progen"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite the pinned detector outputs in testdata")

// pinnedSampleSeed is the run seed every sampled configuration's gate
// phase derives from in the pinned outputs.
const pinnedSampleSeed = 7

// TestRegistryOutputsPinned pins what every registered detector (and
// fasttrack and epoch behind a 1-in-4 sampling gate) reports over the
// progen programs and the synthetic random event streams: the ordered
// race sequence (dedup hash, address, detector name, sequence
// number), the pair count of Counter detectors, and the full Stats.
// One instance per configuration is Reset between streams, so the pin
// also covers in-place reuse. A refactor of the detector family must
// leave testdata/registry_outputs.txt byte-identical; regenerate it
// (`go test -run RegistryOutputsPinned -update ./internal/detector`)
// only for a deliberate, documented change of detector semantics.
func TestRegistryOutputsPinned(t *testing.T) {
	type stream struct {
		name   string
		events []trace.Event
	}
	var streams []stream
	for seed := int64(0); seed < 60; seed++ {
		prog := progen.Generate(seed, progen.Params{})
		rec := &trace.Recorder{}
		sched.Run(prog.Main(), sched.Options{
			Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
			Listeners: []trace.Listener{rec},
		})
		streams = append(streams, stream{fmt.Sprintf("progen/%d", seed), rec.Events})
	}
	for seed := int64(0); seed < 40; seed++ {
		streams = append(streams, stream{fmt.Sprintf("random/%d", seed), randomEventStream(seed)})
	}

	type config struct {
		label string
		name  string
		rate  int
	}
	var configs []config
	for _, name := range Names() {
		configs = append(configs, config{name, name, 0})
	}
	configs = append(configs,
		config{"fasttrack+sample:4", "fasttrack", 4},
		config{"epoch+sample:4", "epoch", 4})

	var out bytes.Buffer
	for _, c := range configs {
		d, err := New(c.name, WithSampleRate(c.rate))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range streams {
			if i > 0 {
				d.Reset()
			}
			if sd, ok := d.(Seeded); ok {
				sd.SetRunSeed(pinnedSampleSeed)
			}
			for _, ev := range s.events {
				d.HandleEvent(ev)
			}
			fmt.Fprintf(&out, "== %s %s\n", c.label, s.name)
			if ctr, ok := d.(Counter); ok {
				fmt.Fprintf(&out, "count %d\n", ctr.Count())
			}
			// Every field, not Stats.String's abridged line.
			type rawStats Stats
			fmt.Fprintf(&out, "stats %+v\n", rawStats(d.Stats()))
			writeRaces(&out, "race", d.Races())
			writeRaces(&out, "candidate", d.Candidates())
		}
	}
	matchGolden(t, "registry_outputs.txt", "RegistryOutputsPinned", out.Bytes())
}

// writeRaces prints one line per report: dedup hash, both accesses'
// address, goroutine and op, detector name and sequence number.
func writeRaces(out *bytes.Buffer, kind string, races []report.Race) {
	for _, r := range races {
		fmt.Fprintf(out, "%s %s a%d/g%d/%v a%d/g%d/%v %s s%d\n", kind, r.Hash(),
			r.First.Addr, r.First.G, r.First.Op, r.Second.Addr, r.Second.G, r.Second.Op, r.Detector, r.Seq)
	}
}

// matchGolden compares got with testdata/name, rewriting the file
// first under -update; test names the `go test -run` pattern that
// regenerates it.
func matchGolden(t *testing.T, name, test string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run %s -update ./internal/detector` after a deliberate semantics change)", err, test)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s diverges at line %d:\ngot:  %s\nwant: %s", name, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s diverges in length: got %d lines, want %d", name, len(gotLines), len(wantLines))
}

// pagedBudgets are the page budgets TestPagedOutputsPinned runs
// fasttrack-paged at; 0 is unbounded.
var pagedBudgets = []int{0, 1, 2, 4}

// TestPagedOutputsPinned pins fasttrack-paged's eviction behaviour:
// over seeded streams spanning more than four shadow pages, with dense
// and with stable (trace.StableBit) addresses, it records at each page
// budget the ordered race lines, every Stats field and LivePages. One
// instance per budget is Reset between streams, so the pin also
// covers Reset keeping the budget. A change to paging must leave
// testdata/paged_outputs.txt byte-identical; regenerate it
// (`go test -run PagedOutputsPinned -update ./internal/detector`)
// only for a deliberate, documented change of eviction semantics.
func TestPagedOutputsPinned(t *testing.T) {
	type stream struct {
		name   string
		events []trace.Event
	}
	var streams []stream
	for seed := int64(0); seed < 4; seed++ {
		streams = append(streams,
			stream{fmt.Sprintf("dense/%d", seed), pagedEventStream(seed, false)},
			stream{fmt.Sprintf("stable/%d", seed), pagedEventStream(seed, true)})
	}

	var out bytes.Buffer
	for _, budget := range pagedBudgets {
		d, err := New("fasttrack-paged")
		if err != nil {
			t.Fatal(err)
		}
		ev := d.(Evictor)
		ev.SetPageBudget(budget)
		for i, s := range streams {
			if i > 0 {
				d.Reset()
			}
			for _, e := range s.events {
				d.HandleEvent(e)
			}
			fmt.Fprintf(&out, "== %s budget:%d %s\n", d.Name(), budget, s.name)
			type rawStats Stats
			fmt.Fprintf(&out, "stats %+v\n", rawStats(d.Stats()))
			fmt.Fprintf(&out, "live %d\n", ev.LivePages())
			writeRaces(&out, "race", d.Races())
		}
	}
	matchGolden(t, "paged_outputs.txt", "PagedOutputsPinned", out.Bytes())
}

// pagedEventStream builds a structurally valid random trace whose
// accesses span more than four shadow pages: a hot set on the first
// page that keeps racing, a cursor sweeping the whole range so cold
// pages evict and re-fault, and uniform strays. With stable set, every address is
// a scrambled trace.StableBit identity, so pages follow the sparse
// index's first-touch order instead of the address value.
func pagedEventStream(seed int64, stable bool) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	const (
		maxG    = 4
		mutexes = 2
		span    = 6*pagedCellsPerPage - 19
		hot     = 12
		nEvents = 3000
	)
	addr := func(i int) trace.Addr {
		if stable {
			return trace.Addr(trace.StableBit | (uint64(i)*0x9e3779b97f4a7c15)>>1)
		}
		return trace.Addr(1 + i)
	}
	var events []trace.Event
	emit := func(ev trace.Event) {
		ev.Seq = uint64(len(events) + 1)
		events = append(events, ev)
	}
	gs := 1
	held := make([]trace.ObjID, maxG) // at most one lock per goroutine
	cursor := 0
	for i := 0; i < nEvents; i++ {
		g := vclock.TID(rng.Intn(gs))
		switch r := rng.Intn(20); {
		case r == 0 && gs < maxG:
			emit(trace.Event{Op: trace.OpFork, G: g, Child: vclock.TID(gs)})
			gs++
		case r == 1 && held[g] == 0:
			held[g] = trace.ObjID(1 + rng.Intn(mutexes))
			emit(trace.Event{Op: trace.OpAcquire, G: g, Obj: held[g], Kind: trace.KindMutex})
		case r == 2 && held[g] != 0:
			emit(trace.Event{Op: trace.OpRelease, G: g, Obj: held[g], Kind: trace.KindMutex})
			held[g] = 0
		default:
			var a int
			switch k := rng.Intn(10); {
			case k < 4:
				a = rng.Intn(hot)
			case k < 8:
				cursor = (cursor + 1 + rng.Intn(2)) % span
				a = cursor
			default:
				a = rng.Intn(span)
			}
			ops := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpRead, trace.OpWrite, trace.OpRead,
				trace.OpAtomicLoad, trace.OpAtomicStore, trace.OpAtomicRMW}
			emit(trace.Event{Op: ops[rng.Intn(len(ops))], G: g, Addr: addr(a)})
		}
	}
	return events
}
