package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/stream"
	"gorace/internal/trace"
)

// The stream workload: one long synthetic stream, encoded during
// set-up, fed whole to a fresh stream.Ingestor under a 64 MiB ceiling;
// each later pass of a run feeds another stream of the same spec,
// encoded before the pass, so detected_frac counts more planted pairs.
// The spec keeps the package defaults (event count, goroutine count,
// address width, planted pairs and gap), spelled out here so the
// event-count check has its own reference.
const (
	streamEvents     = 1 << 20
	streamPlanted    = streamEvents / 10000
	streamGap        = 512
	streamCeilingMiB = 64
	streamBlock      = 32 << 10 // bytes of encoded stream per latency sample
)

func streamSpec(seed int64) stream.SynthSpec {
	return stream.SynthSpec{Events: streamEvents, Planted: streamPlanted, Gap: streamGap, Seed: seed}
}

// expectedEvents counts the events the spec describes, independently
// of the generator and the decoder: one event per position, except
// that positions holding planted accesses emit those instead.
func expectedEvents() uint64 {
	at := make(map[int]int)
	stride := streamEvents / streamPlanted
	for k := 0; k < streamPlanted; k++ {
		first := k * stride
		second := first + streamGap
		if second >= streamEvents {
			second = streamEvents - 1
		}
		at[first]++
		at[second]++
	}
	n := uint64(streamEvents)
	for _, c := range at {
		n += uint64(c - 1)
	}
	return n
}

// blockReader serves the encoded stream and notes when the consumer
// reaches each block boundary; the gaps between notes are the time the
// ingestor took over each block.
type blockReader struct {
	data  []byte
	off   int
	last  time.Time
	block []float64 // ms per block
}

func (r *blockReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	next := (r.off/streamBlock + 1) * streamBlock
	if r.off > 0 && r.off%streamBlock == 0 {
		now := time.Now()
		r.block = append(r.block, ms(now.Sub(r.last)))
		r.last = now
	}
	n := copy(p, r.data[r.off:min(next, len(r.data))])
	r.off += n
	return n, nil
}

// passResult is what one whole-stream ingest cost and found.
type passResult struct {
	dur, cpu time.Duration
	alloc    uint64
	peakMiB  float64
	res      stream.Result
	detected int
	pages    int
	folded   int
	blocks   []float64
}

// ingestPass feeds the whole stream to a fresh Ingestor under the
// ceiling, with the soft memory limit paired to it as
// stream.RunCeilingSweep documents, and checks the result.
func ingestPass(b *bench, spec stream.SynthSpec, data []byte, parent int) (passResult, error) {
	coll := corpus.NewCollector("stream")
	in, err := stream.NewIngestor(stream.Config{MemCeilingMiB: streamCeilingMiB, Collector: coll, Seed: spec.Seed})
	if err != nil {
		return passResult{}, err
	}
	prevLimit := debug.SetMemoryLimit(int64(streamCeilingMiB) << 20 * 3 / 4)
	defer debug.SetMemoryLimit(prevLimit)
	runtime.GC()
	br := &blockReader{data: data}
	peak := watchHeap()
	a0 := allocated()
	c0 := cpuTime()
	t0 := time.Now()
	br.last = t0
	res, err := in.Ingest(context.Background(), br)
	t1 := time.Now()
	cpu := cpuTime() - c0
	alloc := allocated() - a0
	peakMiB := peak.mib()
	if err != nil {
		return passResult{}, err
	}
	b.tr.spanAt("stream.Ingestor.Ingest", parent, "", t0, t1)
	p := passResult{dur: t1.Sub(t0), cpu: cpu, alloc: alloc, peakMiB: peakMiB, res: res,
		pages: in.PageBudget(), folded: coll.Defects(), blocks: br.block}

	want := expectedEvents()
	b.check(res.Events == want, "ingest consumed %d events, the spec has %d", res.Events, want)
	// Every reported race must be on a planted address, and each
	// planted pair can be reported once: the races reported can be no
	// more than the pairs planted.
	planted := make(map[trace.Addr]int, streamPlanted)
	for i := 0; i < streamPlanted; i++ {
		planted[spec.PlantedAddr(i)] = 0
	}
	for _, r := range res.Races {
		a := r.First.Addr
		b.check(r.Second.Addr == a, "race pairs accesses to %#x and %#x", uint64(a), uint64(r.Second.Addr))
		if n, ok := planted[a]; b.check(ok, "race reported on private noise address %#x", uint64(a)) {
			if b.check(n == 0, "planted address %#x reported more than once", uint64(a)) {
				p.detected++
			}
			planted[a] = n + 1
		}
	}
	b.check(len(res.Races) <= streamPlanted, "%d races reported, %d pairs planted", len(res.Races), streamPlanted)
	return p, nil
}

// decodePass decodes the whole stream without detection.
func decodePass(data []byte) (time.Duration, uint64, error) {
	t0 := time.Now()
	dec, err := trace.NewDecoder(bytes.NewReader(data))
	if err != nil {
		return 0, 0, err
	}
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			return 0, 0, err
		}
	}
	return time.Since(t0), dec.Decoded(), nil
}

func runStream(b *bench) error {
	// Set-up: encode the stream.
	spec := streamSpec(b.seed)
	var data []byte
	encode := func(int) (time.Duration, error) {
		t0 := time.Now()
		var buf bytes.Buffer
		err := streamSpec(b.seed).Write(&buf)
		data = buf.Bytes()
		return time.Since(t0), err
	}
	if err := b.setup(encode); err != nil {
		return err
	}

	if b.traced {
		return streamTraced(b, spec, data)
	}
	gc := readGC()
	var passes []passResult
	var events, alloc uint64
	var rates, cpus, blocks, peaks []float64
	detected := 0
	for end := time.Now().Add(b.seconds); len(passes) == 0 || time.Now().Before(end); {
		if len(passes) > 0 {
			spec = streamSpec(b.seed*1000 + int64(len(passes)))
			var buf bytes.Buffer
			if err := spec.Write(&buf); err != nil {
				return err
			}
			data = buf.Bytes()
		}
		p, err := ingestPass(b, spec, data, 0)
		if err != nil {
			return err
		}
		passes = append(passes, p)
		rates = append(rates, float64(p.res.Events)/p.dur.Seconds())
		cpus = append(cpus, float64(p.cpu)/float64(time.Microsecond)/float64(p.res.Events))
		events += p.res.Events
		alloc += p.alloc
		blocks = append(blocks, p.blocks...)
		peaks = append(peaks, p.peakMiB)
		detected += p.detected
		b.attempted += int(p.res.Events)
		fmt.Printf("stream: pass %d: %.0f events/s, peak heap %.1f MiB\n", len(passes), rates[len(rates)-1], p.peakMiB)
	}
	gc.since(b)
	b.metric("cpu_us_per_op", median(cpus))
	v, pct := tail(blocks)
	fmt.Printf("stream: wall clock: %.0f events/s; block p50 %.2f ms, p%g %.2f ms\n", median(rates), median(blocks), 100*pct, v)
	b.metric("heap_mib", median(peaks))
	b.metric("alloc_b_per_op", float64(alloc)/float64(events))
	b.metric("detected_frac", float64(detected)/float64(streamPlanted*len(passes)))
	last := passes[len(passes)-1]
	fmt.Printf("stream: %d passes of %d events (%d bytes); latency per %d KiB block, tail is p%g of %d blocks\n",
		len(passes), last.res.Events, len(data), streamBlock>>10, 100*pct, len(blocks))
	fmt.Printf("stream: ceiling %d MiB, peak heap %.1f MiB (median of passes), %d evictions, %d reloads, %d/%d planted found\n",
		streamCeilingMiB, median(peaks), last.res.Stats.Evictions, last.res.Stats.Reloads, last.detected, streamPlanted)
	return nil
}

// streamTraced repeats, until the time is up: a decode-only pass, an
// untraced ingest pass, and a traced one.
func streamTraced(b *bench, spec stream.SynthSpec, data []byte) error {
	gc := readGC()
	var decode time.Duration
	var decoded uint64
	var plain, traced time.Duration
	var last passResult
	for end := time.Now().Add(b.seconds); decoded == 0 || time.Now().Before(end); {
		t0 := time.Now()
		d, n, err := decodePass(data)
		if err != nil {
			return err
		}
		b.tr.spanAt("trace.Decoder", 0, "decode-only", t0, time.Now())
		b.check(n == expectedEvents(), "decoder produced %d events, the spec has %d", n, expectedEvents())
		decode += d
		decoded += n

		b.tr.on = false
		p, err := ingestPass(b, spec, data, 0)
		if err != nil {
			return err
		}
		plain += p.dur
		b.tr.on = true
		root, endSpan := b.tr.open("stream.pass", 0, "")
		p, err = ingestPass(b, spec, data, root)
		endSpan()
		if err != nil {
			return err
		}
		traced += p.dur
		b.attempted += 2 * int(p.res.Events)
		last = p
	}
	gc.since(b)
	events := float64(last.res.Events)
	passes := float64(decoded) / events
	b.layer("trace.decode_ns_per_event", float64(decode)/float64(decoded))
	b.layer("trace.bytes_per_event", float64(len(data))/events)
	b.layer("detector.ns_per_event", float64(plain-decode)/(passes*events))
	b.layer("bench.trace_overhead_frac", traced.Seconds()/plain.Seconds()-1)
	b.note("stream: %.0f passes of %.0f events, %d bytes (%.2f B/event)", passes, events, len(data), float64(len(data))/events)
	b.note("  decode only        %8.1f ns/event", float64(decode)/float64(decoded))
	b.note("  ingest (untraced)  %8.1f ns/event; detection, windows and folding = ingest - decode = %.1f ns/event (base: events)",
		float64(plain)/(passes*events), float64(plain-decode)/(passes*events))
	pagedLayers(b, last)
	b.note("  tracing overhead: traced ingest %.0f ms vs untraced %.0f ms (base: untraced)", ms(traced), ms(plain))
	return nil
}

// pagedLayers reports the layer metrics that only a paged ingest
// exercises, from one pass.
func pagedLayers(b *bench, p passResult) {
	st := p.res.Stats
	b.layer("detector.evictions", float64(st.Evictions))
	b.layer("detector.reloads", float64(st.Reloads))
	if st.Evictions > 0 {
		b.layer("detector.reload_frac", float64(st.Reloads)/float64(st.Evictions))
	}
	b.layer("detector.promotions", float64(st.Promotions))
	b.layer("stream.page_budget", float64(p.pages))
	b.layer("stream.defects_folded", float64(p.folded))
	b.note("  reloads/evictions  %d/%d = %.3f (base: evictions); page budget %d pages under %d MiB",
		st.Reloads, st.Evictions, float64(st.Reloads)/float64(max(st.Evictions, 1)), p.pages, streamCeilingMiB)
	b.note("  peak heap %.1f MiB against the %d MiB ceiling; %d/%d planted pairs found (base: planted)",
		p.peakMiB, streamCeilingMiB, p.detected, streamPlanted)
}

// streamLayers measures the stream layer for a workload that does not
// run the stream itself: it encodes the stream workload's stream,
// decodes it alone, ingests it once under the ceiling with the same
// checks, and reports the layer metrics only the stream exercises.
// detector.ns_per_event and trace.bytes_per_event stay the caller's.
func streamLayers(b *bench) error {
	spec := streamSpec(b.seed)
	var buf bytes.Buffer
	if err := spec.Write(&buf); err != nil {
		return err
	}
	data := buf.Bytes()
	t0 := time.Now()
	d, n, err := decodePass(data)
	if err != nil {
		return err
	}
	b.tr.spanAt("trace.Decoder", 0, "decode-only", t0, time.Now())
	b.check(n == expectedEvents(), "decoder produced %d events, the spec has %d", n, expectedEvents())
	root, end := b.tr.open("stream.pass", 0, "")
	p, err := ingestPass(b, spec, data, root)
	end()
	if err != nil {
		return err
	}
	b.attempted += 2 // the decode and the ingest
	b.layer("trace.decode_ns_per_event", float64(d)/float64(n))
	b.note("stream layer: one pass of %d events, %d bytes; decode only %.1f ns/event, ingest %.1f ns/event (base: events)",
		p.res.Events, len(data), float64(d)/float64(n), float64(p.dur)/float64(p.res.Events))
	pagedLayers(b, p)
	return nil
}
