package detector

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gorace/internal/progen"
	"gorace/internal/sched"
	"gorace/internal/trace"
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
			for _, r := range d.Races() {
				fmt.Fprintf(&out, "race %s a%d/g%d/%v a%d/g%d/%v %s s%d\n", r.Hash(),
					r.First.Addr, r.First.G, r.First.Op, r.Second.Addr, r.Second.G, r.Second.Op, r.Detector, r.Seq)
			}
			for _, r := range d.Candidates() {
				fmt.Fprintf(&out, "candidate %s a%d/g%d/%v a%d/g%d/%v %s s%d\n", r.Hash(),
					r.First.Addr, r.First.G, r.First.Op, r.Second.Addr, r.Second.G, r.Second.Op, r.Detector, r.Seq)
			}
		}
	}

	path := filepath.Join("testdata", "registry_outputs.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run RegistryOutputsPinned -update ./internal/detector` after a deliberate semantics change)", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got := bytes.Split(out.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if !bytes.Equal(got[i], wantLines[i]) {
			t.Fatalf("pinned outputs diverge at line %d:\ngot:  %s\nwant: %s", i+1, got[i], wantLines[i])
		}
	}
	t.Fatalf("pinned outputs diverge in length: got %d lines, want %d", len(got), len(wantLines))
}
