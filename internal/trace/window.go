package trace

import (
	"sort"

	"gorace/internal/vclock"
)

// WindowRecorder is a Listener that retains only the most recent
// events of each goroutine in a fixed-size ring — the trace-retention
// mode of streaming detection, where the full history of an unbounded
// stream cannot be kept but a manifested race should still carry
// enough recent context to classify and report. Memory is bounded by
// perG × live goroutines regardless of stream length.
type WindowRecorder struct {
	perG int
	gs   map[vclock.TID]*eventRing
}

// eventRing is one goroutine's window: an append-until-full buffer
// that then overwrites oldest-first.
type eventRing struct {
	buf  []Event
	next int // overwrite position once len(buf) == cap
}

// NewWindowRecorder returns a recorder retaining the last perG events
// of each goroutine (minimum 1).
func NewWindowRecorder(perG int) *WindowRecorder {
	if perG < 1 {
		perG = 1
	}
	return &WindowRecorder{perG: perG, gs: make(map[vclock.TID]*eventRing)}
}

// HandleEvent implements Listener.
func (w *WindowRecorder) HandleEvent(ev Event) {
	rg := w.gs[ev.G]
	if rg == nil {
		n := w.perG
		if n > 64 {
			n = 64 // grow to perG on demand; most goroutines stay short
		}
		rg = &eventRing{buf: make([]Event, 0, n)}
		w.gs[ev.G] = rg
	}
	if len(rg.buf) < w.perG {
		rg.buf = append(rg.buf, ev)
		return
	}
	rg.buf[rg.next] = ev
	rg.next++
	if rg.next == len(rg.buf) {
		rg.next = 0
	}
}

// Retained returns the total number of events currently held across
// all goroutine windows.
func (w *WindowRecorder) Retained() int {
	n := 0
	for _, rg := range w.gs {
		n += len(rg.buf)
	}
	return n
}

// Events returns the retained events of all goroutines merged into one
// fresh slice in Seq order — the classify-able trace excerpt a defect
// report keeps when it manifests mid-stream.
func (w *WindowRecorder) Events() []Event {
	out := make([]Event, 0, w.Retained())
	for _, rg := range w.gs {
		out = append(out, rg.buf...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
