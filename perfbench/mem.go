package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

const (
	heapLive   = "/memory/classes/heap/objects:bytes"
	heapAllocs = "/gc/heap/allocs:bytes"
	heapMarked = "/gc/heap/live:bytes"
)

// allocated returns the bytes the process has allocated on the heap so
// far. Unlike runtime.ReadMemStats it does not stop the world.
func allocated() uint64 {
	s := []metrics.Sample{{Name: heapAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime returns the CPU time the process has used so far, user and
// system, over all its threads. A kernel with paravirtual steal-time
// accounting leaves out the time the hypervisor ran another guest on
// the virtual CPU, so on a shared host this counts the program's own
// work, where wall time also counts its neighbours'.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeak samples the live heap every 2 ms from its own goroutine
// until it is stopped. Sampling catches the high-water mark that a
// reading after a GC would hide.
type heapPeak struct {
	stop chan struct{}
	done chan heapSamples
}

// heapSamples are the watcher's readings, in MiB: the heap's objects,
// live and not yet swept, and the heap the last collection marked live.
type heapSamples struct{ objects, marked []float64 }

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan heapSamples, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapLive}, {Name: heapMarked}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var hs heapSamples
		for {
			metrics.Read(s)
			hs.objects = append(hs.objects, float64(s[0].Value.Uint64())/(1<<20))
			hs.marked = append(hs.marked, float64(s[1].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				h.done <- hs
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopSamples stops the watcher and returns its samples.
func (h *heapPeak) stopSamples() heapSamples {
	close(h.stop)
	return <-h.done
}

// stopAt stops the watcher and returns the p-quantile of its samples
// of the heap's objects, in MiB.
func (h *heapPeak) stopAt(p float64) float64 { return percentile(h.stopSamples().objects, p) }

// mib stops the watcher and returns the peak in MiB.
func (h *heapPeak) mib() float64 { return h.stopAt(1) }

// gcCounters is a reading of the collector's cumulative work.
type gcCounters struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcCounters{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

// since records the GC work done after c into the per-layer metrics.
func (c gcCounters) since(b *bench) {
	now := readGC()
	b.layer("runtime.gc_cycles", float64(now.cycles-c.cycles))
	b.layer("runtime.gc_pause_ms", float64(now.pauseNs-c.pauseNs)/1e6)
}
