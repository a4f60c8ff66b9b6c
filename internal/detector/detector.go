// Package detector implements dynamic data race detection over the
// event stream of the modeled runtime.
//
// The registry (New, Names) holds seven configurations of the
// algorithm family §3.1 describes inside ThreadSanitizer:
//
//   - fasttrack: the precise happens-before detector (vector clocks
//     with epoch optimizations), the reference detector of this repo.
//   - fasttrack-paged: FastTrack under the name streaming ingest uses
//     when it bounds the detector's shadow pages to a memory ceiling.
//     Paging is FastTrack's retention policy (Evictor), not a wrapper;
//     with no page budget nothing is evicted.
//   - epoch and djit: the epochs-vs-vector-clocks ablation — the same
//     happens-before verdicts from bare epochs (Epoch) and from full
//     per-cell histories (DJIT), counting races instead of building
//     stacked reports.
//   - eraser: the classic lockset detector — interleaving-insensitive
//     but imprecise ("may include races that may never manifest").
//   - hybrid: runs fasttrack and eraser, reporting FastTrack races as
//     confirmed and Eraser-only findings as lockset candidates,
//     approximating how TSan "integrates lock-set and happens-before
//     algorithms".
//   - none: observes nothing, the overhead baseline.
//
// FastTrack, Epoch and DJIT share one happens-before core (goroutine
// and sync-object clocks and the fork/acquire/release rules) and
// differ only in their per-cell shadow state. Any detector can sit
// behind the Sampled access gate (WithSampleRate).
//
// All detectors are trace.Listeners and can run online (attached to a
// scheduler) or offline over a recorded trace (post-facto, the
// deployment mode of §3.3).
package detector

import (
	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// Detector is a race detector consuming runtime events. All detectors
// expose the same surface, so consumers (the core.Runner, the CLI
// tools, post-facto replay) never special-case an algorithm: precise
// detectors fill Races, lockset-based ones may additionally surface
// Candidates, and counting-only detectors (Epoch, DJIT) report one
// minimal race per racy address.
type Detector interface {
	trace.Listener
	// Races returns the reports accumulated so far.
	Races() []report.Race
	// Candidates returns findings that may not manifest under the
	// analyzed schedule (lockset-only reports); nil for precise
	// detectors.
	Candidates() []report.Race
	// Stats summarizes the work performed (events, shadow cells,
	// reports); Stats().Reports is the race count for counting
	// detectors.
	Stats() Stats
	// Name identifies the detector in reports and experiments.
	Name() string
	// Reset rewinds the detector to its initial state in place,
	// retaining allocated buffers, so one instance can analyze many
	// runs without churning the garbage collector. After Reset, slices
	// previously returned by Races/Candidates are invalidated; callers
	// that keep results across runs must copy them first (core.Runner
	// does).
	Reset()
}

// lockTracker maintains per-goroutine held-lock sets from
// acquire/release events. Shared by the HB detector (for report
// annotation) and the Eraser detector (as its core state). Held sets
// are dense slices keyed by TID, so the per-event bookkeeping is a
// bounds check rather than a map probe.
type lockTracker struct {
	// write[g] / read[g] list lock object ids currently held, in
	// acquisition order; reads-held are tracked separately from
	// write-held.
	write [][]lockEntry
	read  [][]lockEntry
	// cache[g] holds the derived views of g's current lock set
	// (labels for reports, id sets for lockset refinement). Accesses
	// are far more frequent than acquire/release, so deriving these
	// once per lock-set change instead of once per access is what
	// makes the annotated access path allocation-free. Each rebuild
	// allocates fresh slices; consumers may keep the old ones, which
	// stay immutable forever.
	cache []lockView
}

// lockView caches the derived forms of one goroutine's lock set. Each
// field is built lazily under its own valid bit, so a detector that
// only wants labels (FastTrack) never pays for the id sets Eraser
// needs, and vice versa.
type lockView struct {
	labelsOK bool
	labels   []string
	writeOK  bool
	writeIDs []trace.ObjID
	allOK    bool
	allIDs   []trace.ObjID
}

type lockEntry struct {
	obj   trace.ObjID
	label string
}

func newLockTracker() *lockTracker {
	return &lockTracker{}
}

// reset empties every held set in place, keeping per-goroutine buffers.
func (lt *lockTracker) reset() {
	for i := range lt.write {
		lt.write[i] = lt.write[i][:0]
	}
	for i := range lt.read {
		lt.read[i] = lt.read[i][:0]
	}
	for i := range lt.cache {
		lt.cache[i] = lockView{}
	}
}

// view returns g's cache slot, growing the table as needed.
func (lt *lockTracker) view(g vclock.TID) *lockView {
	for int(g) >= len(lt.cache) {
		lt.cache = append(lt.cache, lockView{})
	}
	return &lt.cache[g]
}

// invalidate marks g's derived views stale after a lock-set mutation.
func (lt *lockTracker) invalidate(g vclock.TID) {
	if int(g) < len(lt.cache) {
		lt.cache[g] = lockView{}
	}
}

func growLocks(held [][]lockEntry, g vclock.TID) [][]lockEntry {
	for int(g) >= len(held) {
		held = append(held, nil)
	}
	return held
}

// handle updates lock state; returns true if the event was lock-related.
func (lt *lockTracker) handle(ev trace.Event) bool {
	switch {
	case ev.Op == trace.OpAcquire && ev.Kind == trace.KindMutex:
		lt.write = growLocks(lt.write, ev.G)
		lt.write[ev.G] = append(lt.write[ev.G], lockEntry{ev.Obj, ev.Label})
	case ev.Op == trace.OpRelease && ev.Kind == trace.KindMutex:
		lt.write = growLocks(lt.write, ev.G)
		lt.write[ev.G] = removeLock(lt.write[ev.G], ev.Obj)
	case ev.Op == trace.OpAcquire && ev.Kind == trace.KindRWRead:
		lt.read = growLocks(lt.read, ev.G)
		lt.read[ev.G] = append(lt.read[ev.G], lockEntry{ev.Obj, ev.Label})
	case ev.Op == trace.OpRelease && ev.Kind == trace.KindRWRead:
		lt.read = growLocks(lt.read, ev.G)
		lt.read[ev.G] = removeLock(lt.read[ev.G], ev.Obj)
	default:
		return false
	}
	lt.invalidate(ev.G)
	return true
}

func removeLock(ls []lockEntry, obj trace.ObjID) []lockEntry {
	for i := len(ls) - 1; i >= 0; i-- {
		if ls[i].obj == obj {
			return append(ls[:i], ls[i+1:]...)
		}
	}
	return ls
}

func heldOf(held [][]lockEntry, g vclock.TID) []lockEntry {
	if int(g) >= len(held) {
		return nil
	}
	return held[g]
}

// writeHeld returns the ids of write-held locks of g. The slice is
// shared and immutable; callers may retain but must not mutate it.
func (lt *lockTracker) writeHeld(g vclock.TID) []trace.ObjID {
	v := lt.view(g)
	if !v.writeOK {
		v.writeOK = true
		v.writeIDs = nil
		for _, e := range heldOf(lt.write, g) {
			v.writeIDs = append(v.writeIDs, e.obj)
		}
	}
	return v.writeIDs
}

// allHeld returns the ids of all locks (write- and read-held) of g,
// under the same sharing contract as writeHeld.
func (lt *lockTracker) allHeld(g vclock.TID) []trace.ObjID {
	v := lt.view(g)
	if !v.allOK {
		v.allOK = true
		v.allIDs = nil
		for _, e := range heldOf(lt.write, g) {
			v.allIDs = append(v.allIDs, e.obj)
		}
		for _, e := range heldOf(lt.read, g) {
			v.allIDs = append(v.allIDs, e.obj)
		}
	}
	return v.allIDs
}

// heldLabels returns human-readable names of all locks held by g,
// under the same sharing contract as writeHeld.
func (lt *lockTracker) heldLabels(g vclock.TID) []string {
	v := lt.view(g)
	if !v.labelsOK {
		v.labelsOK = true
		v.labels = nil
		for _, e := range heldOf(lt.write, g) {
			v.labels = append(v.labels, e.label)
		}
		for _, e := range heldOf(lt.read, g) {
			v.labels = append(v.labels, e.label+"(r)")
		}
	}
	return v.labels
}

// intersect keeps the members of a that are also in b. When every
// member of a survives — by far the common case for consistently
// locked data — a is returned unchanged, so steady-state lockset
// refinement allocates nothing.
func intersect(a, b []trace.ObjID) []trace.ObjID {
	kept := 0
	for _, x := range a {
		found := false
		for _, y := range b {
			if x == y {
				found = true
				break
			}
		}
		if !found {
			break
		}
		kept++
	}
	if kept == len(a) {
		return a
	}
	out := append([]trace.ObjID(nil), a[:kept]...)
	for _, x := range a[kept+1:] {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}
