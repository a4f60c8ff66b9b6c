package detector

import (
	"math/rand"
	"testing"

	"gorace/internal/progen"
	"gorace/internal/report/reporttest"
	"gorace/internal/sched"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// TestPooledFastTrackMatchesFresh is the fuzz-style differential for
// the recycled hot path: one FastTrack instance Reset between random
// traces must report exactly the races a fresh instance reports on
// each trace. Any pooled clock or dense-slice state leaking across
// Resets shows up as a verdict or report difference.
func TestPooledFastTrackMatchesFresh(t *testing.T) {
	pooled := NewFastTrack()
	for seed := int64(0); seed < 60; seed++ {
		prog := progen.Generate(seed, progen.Params{})
		rec := &trace.Recorder{}
		sched.Run(prog.Main(), sched.Options{
			Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
			Listeners: []trace.Listener{rec},
		})

		fresh := NewFastTrack()
		rec.Replay(fresh)
		pooled.Reset()
		rec.Replay(pooled)

		if d := reporttest.Diff(pooled.Races(), fresh.Races()); d != "" {
			t.Fatalf("seed %d: pooled vs fresh: %s", seed, d)
		}
		fs, ps := fresh.Stats(), pooled.Stats()
		if fs != ps {
			t.Fatalf("seed %d: stats differ:\nfresh:  %s\npooled: %s", seed, fs, ps)
		}
	}
}

// TestPooledDetectorsMatchFreshOnRandomEventStreams drives every
// detector with synthetic random event streams (not just
// scheduler-generated ones): random forks, lock sections, and plain /
// atomic accesses over a small address space, which exercises read-set
// inflation and shadow-cell reuse much harder than the corpus does.
func TestPooledDetectorsMatchFreshOnRandomEventStreams(t *testing.T) {
	build := map[string]func() Detector{
		"fasttrack": func() Detector { return NewFastTrack() },
		"epoch":     func() Detector { return NewEpoch() },
		"djit":      func() Detector { return NewDJIT() },
		"eraser":    func() Detector { return NewEraser() },
		"hybrid":    func() Detector { return NewHybrid() },
	}
	for name, mk := range build {
		pooled := mk()
		for seed := int64(0); seed < 40; seed++ {
			events := randomEventStream(seed)
			fresh := mk()
			for _, ev := range events {
				fresh.HandleEvent(ev)
			}
			pooled.Reset()
			for _, ev := range events {
				pooled.HandleEvent(ev)
			}
			if d := reporttest.Diff(pooled.Races(), fresh.Races()); d != "" {
				t.Fatalf("%s seed %d: pooled vs fresh: %s", name, seed, d)
			}
			if fs, ps := fresh.Stats(), pooled.Stats(); fs != ps {
				t.Fatalf("%s seed %d: stats differ:\nfresh:  %s\npooled: %s", name, seed, fs, ps)
			}
		}
	}
}

// randomEventStream builds a structurally valid random trace: TIDs
// exist before they act (forked from g0), lock acquire/release pairs
// nest properly per goroutine, and accesses mix plain and atomic ops
// over a handful of cells.
func randomEventStream(seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	const (
		maxG    = 6
		addrs   = 8
		mutexes = 3
		nEvents = 400
	)
	var events []trace.Event
	var seq uint64
	emit := func(ev trace.Event) {
		seq++
		ev.Seq = seq
		events = append(events, ev)
	}
	gs := 1 // g0 exists
	held := make([][]trace.ObjID, maxG)
	for i := 0; i < nEvents; i++ {
		g := vclock.TID(rng.Intn(gs))
		switch r := rng.Intn(10); {
		case r == 0 && gs < maxG:
			emit(trace.Event{Op: trace.OpFork, G: g, Child: vclock.TID(gs)})
			gs++
		case r == 1 && len(held[g]) < 2:
			obj := trace.ObjID(1 + rng.Intn(mutexes))
			already := false
			for _, h := range held[g] {
				if h == obj {
					already = true
				}
			}
			if already {
				continue
			}
			held[g] = append(held[g], obj)
			emit(trace.Event{Op: trace.OpAcquire, G: g, Obj: obj, Kind: trace.KindMutex})
		case r == 2 && len(held[g]) > 0:
			obj := held[g][len(held[g])-1]
			held[g] = held[g][:len(held[g])-1]
			emit(trace.Event{Op: trace.OpRelease, G: g, Obj: obj, Kind: trace.KindMutex})
		default:
			ops := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpRead, trace.OpWrite,
				trace.OpAtomicLoad, trace.OpAtomicStore, trace.OpAtomicRMW}
			emit(trace.Event{
				Op: ops[rng.Intn(len(ops))], G: g,
				Addr: trace.Addr(1 + rng.Intn(addrs)),
			})
		}
	}
	return events
}
