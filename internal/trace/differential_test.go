package trace_test

import (
	"bytes"
	"testing"

	"gorace/internal/detector"
	"gorace/internal/progen"
	"gorace/internal/report/reporttest"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// recordProgen runs one random program live under FastTrack while
// recording, returning the live reports' keys and the recording.
func recordProgen(t testing.TB, seed int64) ([]string, *trace.Recorder) {
	t.Helper()
	prog := progen.Generate(seed, progen.Params{})
	det := detector.NewFastTrack()
	rec := &trace.Recorder{}
	sched.Run(prog.Main(), sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{det, rec},
	})
	return reporttest.Keys(det.Races()), rec
}

// TestCodecReplayMatchesLiveDetection is the codec's end-to-end
// differential, mirroring the pooled-vs-fresh detector differentials:
// for ~60 random programs, a trace pushed through the binary codec
// (encode, decode, replay into a fresh detector) must produce exactly
// the race reports live detection produced. Any lossy field — a
// collapsed address delta, a dropped stack frame, a mangled label —
// shows up as a changed dedup hash here.
func TestCodecReplayMatchesLiveDetection(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		live, rec := recordProgen(t, seed)

		var buf bytes.Buffer
		if err := rec.Save(&buf); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		loaded, err := trace.Load(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		offline := detector.NewFastTrack()
		loaded.Replay(offline)
		replayed := reporttest.Keys(offline.Races())

		if len(live) != len(replayed) {
			t.Fatalf("seed %d: live detection %d races, replay-through-codec %d",
				seed, len(live), len(replayed))
		}
		for i := range live {
			if live[i] != replayed[i] {
				t.Fatalf("seed %d: race %d diverged: live %s, replayed %s",
					seed, i, live[i], replayed[i])
			}
		}
	}
}

// TestBinarySmallerThanJSON pins the codec's size win on real recorded
// traces: the acceptance bar is ≥5×, measured over random programs
// (not a hand-picked best case).
func TestBinarySmallerThanJSON(t *testing.T) {
	var jsonBytes, binBytes int
	for seed := int64(0); seed < 10; seed++ {
		_, rec := recordProgen(t, seed)
		var jb, bb bytes.Buffer
		if err := rec.SaveJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if err := rec.Save(&bb); err != nil {
			t.Fatal(err)
		}
		jsonBytes += jb.Len()
		binBytes += bb.Len()
	}
	ratio := float64(jsonBytes) / float64(binBytes)
	t.Logf("json %d B, binary %d B: %.1fx smaller", jsonBytes, binBytes, ratio)
	if ratio < 5 {
		t.Fatalf("binary codec only %.1fx smaller than JSON Lines, want >= 5x", ratio)
	}
}
