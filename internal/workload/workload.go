// Package workload provides session-based input generators for
// million-user continuous-dataflow scenarios. Where internal/rates models
// one anonymous message stream, this package models a *population of
// users*: sessions arrive (open model: Poisson or 2-state MMPP arrivals;
// closed model: a fixed population cycling through think/active states),
// stay active for an exponentially distributed duration, and each active
// session emits messages at a fixed per-session rate. Arrivals can be
// modulated by a diurnal cycle and punctuated by flash crowds.
//
// A Sessions generator implements rates.Profile, so tenants can mix
// session workloads and legacy rate profiles freely. Like
// rates.RandomWalk, the generator is a deterministic function of
// (Spec, Seed): the active-session path is generated from step zero in
// order and cached, and a read past the cache continues the path where it
// stopped, so Rate(sec) is independent of query order and byte-reproducible
// across runs.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"dynamicdf/internal/rates"
)

// Model selects how sessions enter the system.
type Model string

const (
	// Open: sessions arrive from an unbounded population at rate
	// ArrivalPerSec (optionally MMPP-modulated) and depart after a mean
	// MeanSessionSec — the classic open queueing-network workload.
	Open Model = "open"
	// Closed: a fixed Population of users alternates between thinking
	// (mean ThinkSec) and running a session (mean MeanSessionSec), so
	// load is self-limiting — the classic closed-loop workload.
	Closed Model = "closed"
)

// Spec parameterizes a session generator. The zero value is not valid;
// use New to validate and apply defaults.
type Spec struct {
	// Model is "open" (default) or "closed".
	Model Model `json:"model,omitempty"`

	// ArrivalPerSec is the open model's mean session arrival rate λ.
	ArrivalPerSec float64 `json:"arrivalPerSec,omitempty"`
	// MeanSessionSec is the mean session duration E[S] (both models).
	MeanSessionSec float64 `json:"meanSessionSec"`
	// MsgPerSessionSec is the message rate one active session feeds into
	// the dataflow. Rate(t) = activeSessions(t) × MsgPerSessionSec.
	MsgPerSessionSec float64 `json:"msgPerSessionSec"`

	// Population and ThinkSec drive the closed model: Population users,
	// each thinking for a mean ThinkSec between sessions.
	Population int     `json:"population,omitempty"`
	ThinkSec   float64 `json:"thinkSec,omitempty"`

	// Diurnal modulates arrivals by 1 + Diurnal·sin(2πt/DiurnalPeriodSec):
	// 0 disables, 0.5 means a ±50% day/night swing. DiurnalPeriodSec
	// defaults to 86400 (one day).
	Diurnal          float64 `json:"diurnal,omitempty"`
	DiurnalPeriodSec int64   `json:"diurnalPeriodSec,omitempty"`

	// BurstFactor > 1 enables a 2-state MMPP: arrivals run at λ in the
	// calm state and λ·BurstFactor in the burst state, with exponential
	// state residencies (means CalmResidencySec / BurstResidencySec).
	BurstFactor       float64 `json:"burstFactor,omitempty"`
	CalmResidencySec  float64 `json:"calmResidencySec,omitempty"`
	BurstResidencySec float64 `json:"burstResidencySec,omitempty"`

	// FlashProb is the per-step hazard of a flash crowd: arrivals multiply
	// by FlashFactor for FlashSec seconds.
	FlashProb   float64 `json:"flashProb,omitempty"`
	FlashFactor float64 `json:"flashFactor,omitempty"`
	FlashSec    float64 `json:"flashSec,omitempty"`

	// StepSec is the generator's internal step (default 60s). Seed feeds
	// the deterministic sampler; 0 falls back to 1 like rates.RandomWalk.
	StepSec int64 `json:"stepSec,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
}

// Sessions is a deterministic session-population generator implementing
// rates.Profile. Safe for concurrent Rate calls.
type Sessions struct {
	spec Spec

	mu sync.Mutex
	// active caches the active-session counts per step generated so far;
	// src, x, burst and flashLeft are the generator's state after the last
	// of them, from which the path continues.
	active    []float64
	src       rand.Source
	x         float64
	burst     bool
	flashLeft float64
}

var _ rates.Profile = (*Sessions)(nil)

// New validates spec, applies defaults, and returns a generator.
func New(spec Spec) (*Sessions, error) {
	if spec.Model == "" {
		spec.Model = Open
	}
	switch spec.Model {
	case Open:
		if spec.ArrivalPerSec <= 0 {
			return nil, fmt.Errorf("workload: open model needs arrivalPerSec > 0 (got %v)", spec.ArrivalPerSec)
		}
	case Closed:
		if spec.Population <= 0 {
			return nil, fmt.Errorf("workload: closed model needs population > 0 (got %d)", spec.Population)
		}
		if spec.ThinkSec <= 0 {
			return nil, fmt.Errorf("workload: closed model needs thinkSec > 0 (got %v)", spec.ThinkSec)
		}
	default:
		return nil, fmt.Errorf("workload: unknown model %q (want open or closed)", spec.Model)
	}
	if spec.MeanSessionSec <= 0 {
		return nil, fmt.Errorf("workload: meanSessionSec %v <= 0", spec.MeanSessionSec)
	}
	if spec.MsgPerSessionSec <= 0 {
		return nil, fmt.Errorf("workload: msgPerSessionSec %v <= 0", spec.MsgPerSessionSec)
	}
	if spec.Diurnal < 0 || spec.Diurnal >= 1 {
		return nil, fmt.Errorf("workload: diurnal %v outside [0, 1)", spec.Diurnal)
	}
	if spec.DiurnalPeriodSec == 0 {
		spec.DiurnalPeriodSec = 86400
	}
	if spec.DiurnalPeriodSec < 0 {
		return nil, fmt.Errorf("workload: diurnalPeriodSec %d < 0", spec.DiurnalPeriodSec)
	}
	if spec.BurstFactor != 0 && spec.BurstFactor < 1 {
		return nil, fmt.Errorf("workload: burstFactor %v < 1", spec.BurstFactor)
	}
	if spec.BurstFactor > 1 {
		if spec.CalmResidencySec <= 0 {
			spec.CalmResidencySec = 3600
		}
		if spec.BurstResidencySec <= 0 {
			spec.BurstResidencySec = 600
		}
	}
	if spec.FlashProb < 0 || spec.FlashProb > 1 {
		return nil, fmt.Errorf("workload: flashProb %v outside [0, 1]", spec.FlashProb)
	}
	if spec.FlashProb > 0 {
		if spec.FlashFactor <= 1 {
			spec.FlashFactor = 4
		}
		if spec.FlashSec <= 0 {
			spec.FlashSec = 900
		}
	}
	if spec.StepSec <= 0 {
		spec.StepSec = 60
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	return &Sessions{spec: spec}, nil
}

// MustNew is New or panic, for tests and literals.
func MustNew(spec Spec) *Sessions {
	s, err := New(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// Spec returns the validated spec (defaults applied).
func (s *Sessions) Spec() Spec { return s.spec }

// Rate implements rates.Profile: active sessions at sec times the
// per-session message rate.
func (s *Sessions) Rate(sec int64) float64 {
	if sec < 0 {
		sec = 0
	}
	idx := int(sec / s.spec.StepSec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensure(idx + 1)
	return s.active[idx] * s.spec.MsgPerSessionSec
}

// ActiveSessions reports the modeled number of concurrently active
// sessions at sec — the population the rate derives from.
func (s *Sessions) ActiveSessions(sec int64) float64 {
	if sec < 0 {
		sec = 0
	}
	idx := int(sec / s.spec.StepSec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensure(idx + 1)
	return s.active[idx]
}

// Mean implements rates.Profile with the analytic long-run average:
// Little's law for the open model (λ̄·E[S] sessions, MMPP-weighted λ̄),
// the think-time cycle for the closed model (N·S/(S+Z) sessions). The
// diurnal sinusoid averages out; flash crowds are rare excursions and are
// excluded, so Mean is the baseline the objective σ should be sized from.
func (s *Sessions) Mean() float64 {
	sp := s.spec
	var sessions float64
	switch sp.Model {
	case Closed:
		sessions = float64(sp.Population) * sp.MeanSessionSec / (sp.MeanSessionSec + sp.ThinkSec)
	default:
		lambda := sp.ArrivalPerSec
		if sp.BurstFactor > 1 {
			tot := sp.CalmResidencySec + sp.BurstResidencySec
			lambda *= (sp.CalmResidencySec + sp.BurstResidencySec*sp.BurstFactor) / tot
		}
		sessions = lambda * sp.MeanSessionSec
	}
	return sessions * sp.MsgPerSessionSec
}

// Name implements rates.Profile.
func (s *Sessions) Name() string { return "sessions(" + string(s.spec.Model) + ")" }

// ensure extends the cached active-session path to at least n steps. The
// first extension generates at least 1,024 steps, and each later one at
// least doubles the cache, so a run that reads the path step by step costs
// amortized O(1) per step. The source is consumed in step order whatever
// order Rate is queried in, so every step's value is a pure function of
// (Spec, step).
func (s *Sessions) ensure(n int) {
	have := len(s.active)
	if n <= have {
		return
	}
	sp := s.spec
	if have == 0 {
		s.src = rand.NewSource(sp.Seed)
	}
	// Float64 and NormFloat64 keep no state outside the source, so a fresh
	// wrapper (which stays on the stack) continues the stream exactly.
	rng := rand.New(s.src)
	active := make([]float64, max(n, 1024, 2*have))
	copy(active, s.active)
	dt := float64(sp.StepSec)
	depart := 1 - math.Exp(-dt/sp.MeanSessionSec)
	var think float64
	if sp.Model == Closed {
		think = 1 - math.Exp(-dt/sp.ThinkSec)
	}
	x, burst, flashLeft := s.x, s.burst, s.flashLeft
	for i := have; i < len(active); i++ {
		t := int64(i) * sp.StepSec
		mod := 1.0
		if sp.Diurnal > 0 {
			mod *= 1 + sp.Diurnal*math.Sin(2*math.Pi*float64(t)/float64(sp.DiurnalPeriodSec))
		}
		if sp.BurstFactor > 1 {
			if burst {
				mod *= sp.BurstFactor
				if rng.Float64() < 1-math.Exp(-dt/sp.BurstResidencySec) {
					burst = false
				}
			} else if rng.Float64() < 1-math.Exp(-dt/sp.CalmResidencySec) {
				burst = true
			}
		}
		if sp.FlashProb > 0 {
			if flashLeft > 0 {
				mod *= sp.FlashFactor
				flashLeft -= dt
			} else if rng.Float64() < sp.FlashProb {
				flashLeft = sp.FlashSec
			}
		}

		switch sp.Model {
		case Closed:
			// Fixed population: thinkers start sessions, active ones end.
			thinkers := float64(sp.Population) - x
			if thinkers < 0 {
				thinkers = 0
			}
			x += thinkers*think*mod - x*depart
			if x > float64(sp.Population) {
				x = float64(sp.Population)
			}
		default:
			// Open: Poisson arrivals over the step, fluid departures.
			x += poisson(rng, sp.ArrivalPerSec*dt*mod) - x*depart
		}
		if x < 0 {
			x = 0
		}
		active[i] = x
	}
	s.active = active
	s.x, s.burst, s.flashLeft = x, burst, flashLeft
}

// poisson draws a Poisson(mean) sample: Knuth's product method for small
// means, a normal approximation (clamped at zero) for large ones.
func poisson(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		x := mean + math.Sqrt(mean)*rng.NormFloat64()
		if x < 0 {
			return 0
		}
		return math.Round(x)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
	}
}

// Fan splits one profile across k input PEs with the given weights
// (uniform when weights is nil), modeling user flows that enter the
// dataflow at multiple source PEs. The returned profiles sum to the
// original at every instant.
func Fan(p rates.Profile, weights []float64, k int) ([]rates.Profile, error) {
	if k <= 0 {
		return nil, fmt.Errorf("workload: fan into %d inputs", k)
	}
	if weights == nil {
		weights = make([]float64, k)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != k {
		return nil, fmt.Errorf("workload: %d fan weights for %d inputs", len(weights), k)
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("workload: fan weight[%d] = %v < 0", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("workload: fan weights sum to %v", total)
	}
	out := make([]rates.Profile, k)
	for i, w := range weights {
		out[i] = &rates.Scaled{Base: p, Factor: w / total}
	}
	return out, nil
}
