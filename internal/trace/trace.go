// Package trace models the performance variability of virtualized IaaS
// clouds (paper §2.5, §4, Figs. 2-3). The paper replays CPU and network
// traces collected from ~50 VMs on the FutureGrid private cloud over four
// days; those traces are not published, so this package generates synthetic
// equivalents — mean-reverting (Ornstein-Uhlenbeck) coefficient series with
// occasional regime shifts and a diurnal component — whose mean, deviation
// range and autocorrelation structure match the behaviour the paper reports.
// Real traces can be loaded from CSV instead; the consumers only see the
// Series type.
//
// Replay follows §8.1: each active VM is assigned a random window into a
// trace, and the coefficient multiplies the VM's rated performance to give
// its instantaneous runtime performance.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Series is a periodically sampled coefficient or measurement series.
// Lookups past the end wrap around, so a finite trace replays indefinitely.
type Series struct {
	// PeriodSec is the sampling period in seconds (> 0).
	PeriodSec int64
	// Samples holds the sampled values.
	Samples []float64
}

// NewSeries validates and wraps the samples.
func NewSeries(periodSec int64, samples []float64) (*Series, error) {
	if periodSec <= 0 {
		return nil, fmt.Errorf("trace: period %d <= 0", periodSec)
	}
	if len(samples) == 0 {
		return nil, errors.New("trace: empty series")
	}
	return &Series{PeriodSec: periodSec, Samples: samples}, nil
}

// At returns the sample covering time sec (sample-and-hold), wrapping past
// the end of the trace. Negative times map to the first cycle.
func (s *Series) At(sec int64) float64 {
	idx := sec / s.PeriodSec
	if sec < 0 && sec%s.PeriodSec != 0 {
		idx-- // floor division so negative times map into the prior cycle
	}
	n := int64(len(s.Samples))
	idx %= n
	if idx < 0 {
		idx += n
	}
	return s.Samples[idx]
}

// Duration returns the trace's covered timespan in seconds.
func (s *Series) Duration() int64 {
	return s.PeriodSec * int64(len(s.Samples))
}

// Window returns a view of the series shifted by offset seconds: reading
// the window at t reads the underlying series at t+offset. Replaying
// different windows of one trace on different VMs (as §8.1 does) decorrelates
// their behaviour without generating new data.
func (s *Series) Window(offsetSec int64) *Window {
	return &Window{series: s, offset: offsetSec}
}

// Window is a shifted view into a Series.
type Window struct {
	series *Series
	offset int64
}

// At reads the windowed series at time sec.
func (w *Window) At(sec int64) float64 { return w.series.At(sec + w.offset) }

// GenConfig parameterizes synthetic coefficient generation. The process is
//
//	x(t+dt) = x(t) + theta*(mean - x(t))*dt + sigma*sqrt(dt)*N(0,1)
//
// with probability RegimeProb per sample of jumping to a new regime level
// (multi-tenant neighbours arriving/leaving, patch roll-outs — the causes
// §2.5 lists), plus a sinusoidal diurnal term, clamped to [Min, Max].
type GenConfig struct {
	// Mean is the long-run level the process reverts to.
	Mean float64
	// Theta is the mean-reversion rate per second.
	Theta float64
	// Sigma is the diffusion magnitude per sqrt(second).
	Sigma float64
	// RegimeProb is the per-sample probability of a regime shift.
	RegimeProb float64
	// RegimeAmp bounds the regime offset: shifts draw uniformly from
	// [-RegimeAmp, +RegimeAmp] around Mean.
	RegimeAmp float64
	// DiurnalAmp is the amplitude of a 24-hour sinusoidal component.
	DiurnalAmp float64
	// Min and Max clamp the output.
	Min, Max float64
	// PeriodSec is the sampling period of the generated series.
	PeriodSec int64
}

// Validate reports whether the configuration is self-consistent.
func (c GenConfig) Validate() error {
	if c.PeriodSec <= 0 {
		return fmt.Errorf("trace: gen period %d <= 0", c.PeriodSec)
	}
	if c.Min > c.Max {
		return fmt.Errorf("trace: gen min %v > max %v", c.Min, c.Max)
	}
	if c.Mean < c.Min || c.Mean > c.Max {
		return fmt.Errorf("trace: gen mean %v outside [%v, %v]", c.Mean, c.Min, c.Max)
	}
	if c.Theta < 0 || c.Sigma < 0 || c.RegimeProb < 0 || c.RegimeProb > 1 {
		return errors.New("trace: gen rates must be non-negative (regime prob in [0,1])")
	}
	return nil
}

// Generate produces n samples from the config using the given RNG.
func (c GenConfig) Generate(rng *rand.Rand, n int) (*Series, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("trace: generate %d samples", n)
	}
	var shape []float64
	if c.DiurnalAmp != 0 {
		shape = diurnalShape(c.PeriodSec, n)
	}
	return c.generate(rng, n, shape), nil
}

// generate draws n samples from a validated config. shape is
// diurnalShape(c.PeriodSec, n), read only when DiurnalAmp is non-zero.
func (c GenConfig) generate(rng *rand.Rand, n int, shape []float64) *Series {
	dt := float64(c.PeriodSec)
	sqrtDt := math.Sqrt(dt)
	x := c.Mean
	regime := 0.0
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if c.RegimeProb > 0 && rng.Float64() < c.RegimeProb {
			regime = (rng.Float64()*2 - 1) * c.RegimeAmp
		}
		target := c.Mean + regime
		x += c.Theta*(target-x)*dt + c.Sigma*sqrtDt*rng.NormFloat64()
		v := x
		if c.DiurnalAmp != 0 {
			v += c.DiurnalAmp * shape[i]
		}
		if v < c.Min {
			v = c.Min
		}
		if v > c.Max {
			v = c.Max
		}
		out[i] = v
	}
	return &Series{PeriodSec: c.PeriodSec, Samples: out}
}

// diurnalShape tabulates the diurnal term's 24-hour sine at each of n
// sample times i·periodSec. It depends on nothing else, so one table serves
// every trace generated at that period and length, and reading it gives the
// same bits as calling math.Sin per sample.
func diurnalShape(periodSec int64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(int64(i) * periodSec)
		out[i] = math.Sin(2 * math.Pi * t / 86400)
	}
	return out
}

// DefaultCPUConfig returns generation parameters calibrated to Fig. 2: a CPU
// performance coefficient fluctuating around ~0.9 of rated with relative
// deviations up to roughly +-20% of its mean over multi-day horizons,
// sampled every minute.
func DefaultCPUConfig() GenConfig {
	return GenConfig{
		Mean:       0.82,
		Theta:      0.004,
		Sigma:      0.0045,
		RegimeProb: 0.003,
		RegimeAmp:  0.25,
		DiurnalAmp: 0.04,
		Min:        0.45,
		Max:        1.00,
		PeriodSec:  60,
	}
}

// DefaultLatencyConfig returns generation parameters for pairwise network
// latency in seconds, matching Fig. 3's millisecond-scale fluctuation with
// spikes: mean ~0.8 ms, excursions to several ms.
func DefaultLatencyConfig() GenConfig {
	return GenConfig{
		Mean:       0.0008,
		Theta:      0.01,
		Sigma:      0.00006,
		RegimeProb: 0.004,
		RegimeAmp:  0.002,
		DiurnalAmp: 0.0001,
		Min:        0.0002,
		Max:        0.01,
		PeriodSec:  60,
	}
}

// DefaultBandwidthConfig returns generation parameters for pairwise
// bandwidth in Mbps: rated 100 Mbps links whose achievable throughput
// fluctuates and occasionally collapses under data-center cross-traffic.
func DefaultBandwidthConfig() GenConfig {
	return GenConfig{
		Mean:       90,
		Theta:      0.005,
		Sigma:      0.35,
		RegimeProb: 0.003,
		RegimeAmp:  35,
		DiurnalAmp: 4,
		Min:        20,
		Max:        100,
		PeriodSec:  60,
	}
}

// FourDays is the number of one-minute samples in the paper's four-day
// trace window.
const FourDays = 4 * 24 * 60
