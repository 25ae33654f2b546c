// Package monitor implements the part of the paper's monitoring framework
// (§4) that the runtime heuristics read: per-VM CPU performance probes and
// dataflow message rates. In the simulator the probes read the trace
// provider; the estimators here smooth those observations into the values
// the heuristics consume, exactly as a real deployment would smooth noisy
// probe results. The paper's monitor also probes pairwise network latency
// and bandwidth, but Alg. 1 and Alg. 2 as reproduced here read neither, so
// no pairwise estimator is kept.
//
// All pools store their estimators in dense slices indexed by the small
// integer ids the simulator hands out (PE indices, VM ids), so estimator
// lookup never hashes.
package monitor

import (
	"fmt"
	"math"
)

// EWMA is an exponentially weighted moving average estimator.
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// Observe folds a new observation into the estimate. The first observation
// primes the estimator directly.
func (e *EWMA) Observe(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return // drop broken probes rather than poison the estimate
	}
	if !e.primed {
		e.value = x
		e.primed = true
		return
	}
	e.value += e.alpha * (x - e.value)
}

// Value returns the current estimate; ok is false before any observation.
func (e *EWMA) Value() (v float64, ok bool) { return e.value, e.primed }

// ValueOr returns the estimate or def when unprimed.
func (e *EWMA) ValueOr(def float64) float64 {
	if !e.primed {
		return def
	}
	return e.value
}

// Reset clears the estimator.
func (e *EWMA) Reset() { e.primed = false; e.value = 0 }

// RateEstimator tracks per-key message rates with EWMA smoothing — the
// "observed input data rates" fed to the runtime heuristics each interval.
// Keys must be small non-negative integers (the engine uses PE indices);
// storage is dense over the largest key seen.
type RateEstimator struct {
	alpha float64
	est   []EWMA
	has   []bool
	n     int
}

// NewRateEstimator returns an estimator pool with the given smoothing.
func NewRateEstimator(alpha float64) (*RateEstimator, error) {
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("monitor: rate alpha %v outside (0,1]", alpha)
	}
	return &RateEstimator{alpha: alpha}, nil
}

func (r *RateEstimator) grow(key int) {
	for len(r.est) <= key {
		r.est = append(r.est, EWMA{alpha: r.alpha})
		r.has = append(r.has, false)
	}
}

// Observe records a rate observation for key (e.g. a PE index). Negative
// keys are ignored.
func (r *RateEstimator) Observe(key int, rate float64) {
	if key < 0 {
		return
	}
	r.grow(key)
	if !r.has[key] {
		r.has[key] = true
		r.n++
	}
	r.est[key].Observe(rate)
}

// Estimate returns the smoothed rate for key, or def when never observed.
func (r *RateEstimator) Estimate(key int, def float64) float64 {
	if key < 0 || key >= len(r.est) || !r.has[key] {
		return def
	}
	return r.est[key].ValueOr(def)
}

// Probe is one synthetic-benchmark measurement of a VM.
type Probe struct {
	// Sec is the probe time.
	Sec int64
	// CPUCoeff is the measured normalized core speed coefficient.
	CPUCoeff float64
}

// VMMonitor smooths per-VM CPU probes, keyed by VM id. Ids must be small
// non-negative integers; storage is dense over the largest id seen.
type VMMonitor struct {
	alpha float64
	cpu   []EWMA
	last  []int64
	has   []bool
	n     int
}

// NewVMMonitor returns a monitor with the given EWMA smoothing factor.
func NewVMMonitor(alpha float64) (*VMMonitor, error) {
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("monitor: vm alpha %v outside (0,1]", alpha)
	}
	return &VMMonitor{alpha: alpha}, nil
}

func (m *VMMonitor) grow(vmID int) {
	for len(m.cpu) <= vmID {
		m.cpu = append(m.cpu, EWMA{alpha: m.alpha})
		m.last = append(m.last, 0)
		m.has = append(m.has, false)
	}
}

// ObserveCPU records a CPU probe for a VM.
func (m *VMMonitor) ObserveCPU(vmID int, p Probe) error {
	if vmID < 0 {
		return fmt.Errorf("monitor: negative vm id %d", vmID)
	}
	if p.CPUCoeff <= 0 {
		return fmt.Errorf("monitor: vm %d: non-positive CPU coefficient %v", vmID, p.CPUCoeff)
	}
	m.grow(vmID)
	if !m.has[vmID] {
		m.has[vmID] = true
		m.n++
	}
	m.cpu[vmID].Observe(p.CPUCoeff)
	m.last[vmID] = p.Sec
	return nil
}

// CPUCoeff returns the smoothed coefficient for a VM, or def when the VM
// has never been probed (a just-acquired instance is assumed rated: 1).
func (m *VMMonitor) CPUCoeff(vmID int, def float64) float64 {
	if vmID < 0 || vmID >= len(m.cpu) || !m.has[vmID] {
		return def
	}
	return m.cpu[vmID].ValueOr(def)
}

// Forget drops state for a released VM.
func (m *VMMonitor) Forget(vmID int) {
	if vmID < 0 || vmID >= len(m.cpu) || !m.has[vmID] {
		return
	}
	m.has[vmID] = false
	m.cpu[vmID].Reset()
	m.last[vmID] = 0
	m.n--
}
