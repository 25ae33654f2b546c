// Package rates provides input data-rate profiles for continuous dataflows.
// The paper's evaluation (§8.1) drives the dataflow with three profiles —
// constant rate, periodic waves, and a random walk around a mean — at rates
// between 2 and 50 msg/s. Profiles are deterministic functions of time (the
// random walk derives its path from a seed), so simulations are repeatable.
package rates

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Profile yields the external message rate (msg/s) entering an input PE at
// a given simulation time.
type Profile interface {
	// Rate returns the message rate at time sec. Implementations must
	// return non-negative values.
	Rate(sec int64) float64
	// Mean returns the profile's long-run average rate, which the paper's
	// experiments use as the x-axis "data rate".
	Mean() float64
	// Name identifies the profile kind in experiment output.
	Name() string
}

// Constant is a fixed-rate profile.
type Constant struct {
	R float64
}

// NewConstant returns a constant profile at r msg/s.
func NewConstant(r float64) (*Constant, error) {
	if r < 0 {
		return nil, fmt.Errorf("rates: constant rate %v < 0", r)
	}
	return &Constant{R: r}, nil
}

// Rate implements Profile.
func (c *Constant) Rate(int64) float64 { return c.R }

// Mean implements Profile.
func (c *Constant) Mean() float64 { return c.R }

// Name implements Profile.
func (c *Constant) Name() string { return "constant" }

// Wave is a periodic (sinusoidal) profile around a mean — the paper's
// "periodic waves" workload.
type Wave struct {
	MeanRate  float64
	Amplitude float64
	PeriodSec int64
	PhaseSec  int64
}

// NewWave builds a periodic profile. amplitude must not exceed mean so the
// rate stays non-negative.
func NewWave(mean, amplitude float64, periodSec int64) (*Wave, error) {
	if mean < 0 {
		return nil, fmt.Errorf("rates: wave mean %v < 0", mean)
	}
	if amplitude < 0 || amplitude > mean {
		return nil, fmt.Errorf("rates: wave amplitude %v outside [0, mean=%v]", amplitude, mean)
	}
	if periodSec <= 0 {
		return nil, fmt.Errorf("rates: wave period %d <= 0", periodSec)
	}
	return &Wave{MeanRate: mean, Amplitude: amplitude, PeriodSec: periodSec}, nil
}

// Rate implements Profile.
func (w *Wave) Rate(sec int64) float64 {
	t := float64(sec+w.PhaseSec) / float64(w.PeriodSec)
	return w.MeanRate + w.Amplitude*math.Sin(2*math.Pi*t)
}

// Mean implements Profile.
func (w *Wave) Mean() float64 { return w.MeanRate }

// Name implements Profile.
func (w *Wave) Name() string { return "wave" }

// RandomWalk wanders around a mean with bounded steps — the paper's "random
// walk around a mean" workload. The walk is mean-reverting so the long-run
// average stays near Mean, and it is precomputed lazily per step interval so
// Rate(sec) is a pure function of (seed, sec).
//
// The walks of one campaign's jobs are often the same walk: a walk may start
// from a read-only prefix of its steps that another generated (Prefix,
// Share), and continues privately past it.
type RandomWalk struct {
	MeanRate float64
	// Step is the maximum relative step per StepSec interval (e.g. 0.1
	// allows +-10% of mean per step).
	Step float64
	// StepSec is how often the walk moves.
	StepSec int64
	// Lo and Hi clamp the rate (both relative to mean, e.g. 0.5 and 1.5).
	Lo, Hi float64
	Seed   int64

	// cache holds the walk's steps generated so far, or a shared prefix of
	// them that is never written; src is the source that continues cache,
	// nil while there is nothing of the walk's own to continue.
	cache []float64
	src   rand.Source
}

// NewRandomWalk builds a mean-reverting random walk profile.
func NewRandomWalk(mean, step float64, stepSec int64, seed int64) (*RandomWalk, error) {
	if mean < 0 {
		return nil, fmt.Errorf("rates: walk mean %v < 0", mean)
	}
	if step < 0 || step > 1 {
		return nil, fmt.Errorf("rates: walk step %v outside [0,1]", step)
	}
	if stepSec <= 0 {
		return nil, fmt.Errorf("rates: walk step period %d <= 0", stepSec)
	}
	return &RandomWalk{
		MeanRate: mean, Step: step, StepSec: stepSec,
		Lo: 0.4, Hi: 1.6, Seed: seed,
	}, nil
}

// Prefix generates the walk's first n steps (at least one) afresh, as Rate
// reads them, for Share to hand to walks of the same parameters. It leaves
// rw as it is.
func (rw *RandomWalk) Prefix(n int) []float64 {
	steps := make([]float64, max(n, 1))
	rw.fill(steps, 0, rand.NewSource(rw.Seed))
	return steps
}

// Share makes the walk read its first len(prefix) steps from prefix, which
// Prefix made for a walk of the same mean, step, step period, clamps and
// seed. The walk never writes prefix, so any number of walks can share it:
// a read past it regenerates the walk from the seed into a slice of its own.
func (rw *RandomWalk) Share(prefix []float64) {
	rw.cache, rw.src = prefix, nil
}

// ensure extends the cached walk to cover step index n. The first block
// holds at least 1,024 steps, and each extension at least doubles the
// cache, so a run that reads the walk step by step costs amortized O(1)
// per step. The source is consumed in step order whatever order Rate is
// queried in, so every step's value is a pure function of (seed, step).
func (rw *RandomWalk) ensure(n int) {
	have := len(rw.cache)
	if have > n {
		return
	}
	if rw.src == nil {
		// Nothing generated yet, or only a shared prefix, which is not
		// ours to extend: start over from the seed.
		rw.src = rand.NewSource(rw.Seed)
		have = 0
	}
	walk := make([]float64, max(n+1, 1024, 2*len(rw.cache)))
	copy(walk, rw.cache[:have])
	rw.fill(walk, have, rw.src)
	rw.cache = walk
}

// fill generates walk[from:] from src, which has produced the draws of the
// steps before from and no more.
func (rw *RandomWalk) fill(walk []float64, from int, src rand.Source) {
	x := rw.MeanRate
	if from > 0 {
		x = walk[from-1]
	}
	// Float64 keeps no state outside the source, so a fresh wrapper (which
	// stays on the stack) continues the stream exactly.
	rng := rand.New(src)
	lo, hi := rw.Lo*rw.MeanRate, rw.Hi*rw.MeanRate
	for i := from; i < len(walk); i++ {
		// Mean reversion plus a bounded uniform step.
		x += 0.1*(rw.MeanRate-x) + (rng.Float64()*2-1)*rw.Step*rw.MeanRate
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		walk[i] = x
	}
}

// Rate implements Profile.
func (rw *RandomWalk) Rate(sec int64) float64 {
	if sec < 0 {
		sec = 0
	}
	n := int(sec / rw.StepSec)
	rw.ensure(n)
	return rw.cache[n]
}

// Mean implements Profile.
func (rw *RandomWalk) Mean() float64 { return rw.MeanRate }

// Name implements Profile.
func (rw *RandomWalk) Name() string { return "randomwalk" }

// Spike overlays burst spikes onto a base profile: every IntervalSec, the
// rate multiplies by Factor for DurationSec. It models flash-crowd arrivals
// beyond the paper's three profiles and is used in robustness tests.
type Spike struct {
	Base        Profile
	Factor      float64
	IntervalSec int64
	DurationSec int64
}

// NewSpike wraps base with periodic multiplicative bursts.
func NewSpike(base Profile, factor float64, intervalSec, durationSec int64) (*Spike, error) {
	if base == nil {
		return nil, errors.New("rates: spike needs a base profile")
	}
	if factor < 1 {
		return nil, fmt.Errorf("rates: spike factor %v < 1", factor)
	}
	if intervalSec <= 0 || durationSec <= 0 || durationSec > intervalSec {
		return nil, fmt.Errorf("rates: spike interval %d / duration %d invalid", intervalSec, durationSec)
	}
	return &Spike{Base: base, Factor: factor, IntervalSec: intervalSec, DurationSec: durationSec}, nil
}

// Rate implements Profile.
func (s *Spike) Rate(sec int64) float64 {
	r := s.Base.Rate(sec)
	phase := sec % s.IntervalSec
	if phase < 0 {
		phase += s.IntervalSec
	}
	if phase < s.DurationSec {
		return r * s.Factor
	}
	return r
}

// Mean implements Profile.
func (s *Spike) Mean() float64 {
	frac := float64(s.DurationSec) / float64(s.IntervalSec)
	return s.Base.Mean() * (1 + frac*(s.Factor-1))
}

// Name implements Profile.
func (s *Spike) Name() string { return "spike(" + s.Base.Name() + ")" }

// Scaled multiplies a profile by a constant factor, used to derive per-input
// rates from a single experiment-level data rate.
type Scaled struct {
	Base   Profile
	Factor float64
}

// Rate implements Profile.
func (s *Scaled) Rate(sec int64) float64 { return s.Base.Rate(sec) * s.Factor }

// Mean implements Profile.
func (s *Scaled) Mean() float64 { return s.Base.Mean() * s.Factor }

// Name implements Profile.
func (s *Scaled) Name() string { return s.Base.Name() }

// PaperDataRates lists the mean data rates (msg/s) the evaluation sweeps
// (§8.1: "2 msgs/sec to 50 msgs/sec").
func PaperDataRates() []float64 { return []float64{2, 5, 10, 20, 35, 50} }
