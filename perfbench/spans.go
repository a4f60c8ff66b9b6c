package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the id of the span that
// caused it (0 for a root); spans of one request share that root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Tags   string  `json:"tags,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory; they are written out when the run
// ends, so recording costs an append, not an I/O. A disabled tracer
// records nothing and returns id 0.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// spanAt records a finished span and returns its id.
func (t *tracer) spanAt(name string, parent int, tags string, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Tags: tags,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
	})
	return id
}

// open starts a span whose children are recorded before it ends; the
// returned function closes it. Children name the id as their parent.
func (t *tracer) open(name string, parent int, tags string) (id int, end func()) {
	if !t.on {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Tags: tags, Start: ms(start.Sub(t.t0))})
	t.mu.Unlock()
	return id, func() {
		now := ms(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, tags string, f func()) {
	start := time.Now()
	f()
	t.spanAt(name, parent, tags, start, time.Now())
}

// layerTime is the time one span name accounts for: total is the sum
// of its spans' durations, self subtracts the part of each span that
// its children cover.
type layerTime struct {
	name    string
	count   int
	totalMs float64
	selfMs  float64
}

// layers derives self time per span name, largest self time first.
func (t *tracer) layers() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.count++
		lt.totalMs += dur
		lt.selfMs += dur - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfMs != out[j].selfMs {
			return out[i].selfMs > out[j].selfMs
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]float64, lo, hi float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, lo, lo
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers writes the self-time table.
func (t *tracer) printLayers(w io.Writer) {
	ls := t.layers()
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "self_us/span")
	for _, l := range ls {
		fmt.Fprintf(w, "%-28s %8d %12.2f %12.2f %12.2f\n", l.name, l.count, l.totalMs, l.selfMs, 1000*l.selfMs/float64(l.count))
	}
}
