package detector

import (
	"fmt"

	"gorace/internal/report"
	"gorace/internal/trace"
)

// Sampled is the access-sampling wrapper: it forwards every
// synchronization and fork event to the inner detector — the
// happens-before clocks must stay exact or sampled verdicts would be
// wrong, not merely incomplete — but gates memory accesses through a
// deterministic 1-in-Rate counter. Sampling trades detection
// probability for overhead on the hottest part of the event stream;
// docs/DETECTORS.md documents the tradeoff curve and how campaigns
// sweep it.
//
// Determinism: the gate is a simple per-run access counter with a
// seed-derived starting phase (set via SetRunSeed, which core.Runner
// calls before each seed). Each modeled run's event stream is itself
// sequential and deterministic per seed, so the set of checked
// accesses — and therefore every verdict — is reproducible at any
// campaign parallelism. Rate 1 checks every access and is
// behaviorally identical to the unwrapped detector.
type Sampled struct {
	// Inner is the wrapped detector receiving the sampled stream.
	Inner Detector
	// Rate is the sampling rate: 1 in Rate accesses is checked.
	Rate int

	ctr     uint64
	phase   uint64
	stats   statCounter // full-stream event shape, pre-gate
	checked int
	skipped int
}

// NewSampled wraps inner with a 1-in-rate access-sampling gate.
// Rates below 1 are treated as 1 (check everything).
func NewSampled(inner Detector, rate int) *Sampled {
	if rate < 1 {
		rate = 1
	}
	return &Sampled{Inner: inner, Rate: rate}
}

// Name implements Detector, tagging the inner name with the rate so a
// sampled run is recognizable in reports and logs. Race dedup hashes
// cover only the two stacks, never the detector name, so the tag does
// not perturb corpus identity.
func (s *Sampled) Name() string {
	if s.Rate <= 1 {
		return s.Inner.Name()
	}
	return fmt.Sprintf("%s+sample:%d", s.Inner.Name(), s.Rate)
}

// HandleEvent implements trace.Listener: sync and fork events always
// pass through; accesses pass 1 in Rate.
func (s *Sampled) HandleEvent(ev trace.Event) {
	s.stats.note(ev)
	if ev.Op.IsAccess() && s.Rate > 1 {
		hit := (s.ctr+s.phase)%uint64(s.Rate) == 0
		s.ctr++
		if !hit {
			s.skipped++
			return
		}
		s.checked++
	} else if ev.Op.IsAccess() {
		s.checked++
	}
	s.Inner.HandleEvent(ev)
}

// Races implements Detector.
func (s *Sampled) Races() []report.Race { return s.Inner.Races() }

// Candidates implements Detector.
func (s *Sampled) Candidates() []report.Race { return s.Inner.Candidates() }

// Count implements Counter by delegating to the wrapped detector.
// For a report-producing inner detector it returns 0, matching the
// runner's convention that a nonzero count marks a counting-only
// detector (full reports speak for themselves via Races).
func (s *Sampled) Count() int {
	if c, ok := s.Inner.(Counter); ok {
		return c.Count()
	}
	return 0
}

// Stats implements Detector. The event-shape counters describe the
// full pre-gate stream; CheckedAccesses/SkippedAccesses carry the
// gate's split, and the shadow-state and adaptive counters are the
// inner detector's own — no zero-value lies about work that really
// happened inside.
func (s *Sampled) Stats() Stats {
	st := s.Inner.Stats()
	st.Events = s.stats.events
	st.Accesses = s.stats.accesses
	st.SyncOps = s.stats.syncOps
	st.CheckedAccesses = s.checked
	st.SkippedAccesses = s.skipped
	return st
}

// SetRunSeed implements Seeded: it derives the gate's starting phase
// from the run seed (splitmix64, so neighboring seeds get unrelated
// phases) and rewinds the access counter. core.Runner calls this
// before every seed so campaign results depend only on (seed, rate).
func (s *Sampled) SetRunSeed(seed int64) {
	if s.Rate > 1 {
		s.phase = splitmix64(uint64(seed)) % uint64(s.Rate)
	}
	s.ctr = 0
	if in, ok := s.Inner.(Seeded); ok {
		in.SetRunSeed(seed)
	}
}

// Reset implements Detector by resetting the wrapped detector and
// rewinding the gate.
func (s *Sampled) Reset() {
	s.Inner.Reset()
	s.ctr = 0
	s.stats = statCounter{}
	s.checked, s.skipped = 0, 0
}

// splitmix64 is the SplitMix64 finalizer, a cheap bijective hash used
// to spread consecutive seeds into unrelated sampling phases.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
