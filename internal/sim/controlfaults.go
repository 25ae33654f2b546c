package sim

import (
	"errors"
	"fmt"
	"math"
)

// ControlFaults injects control-plane misbehaviour into a scenario: real
// IaaS clouds violate the seed model's three implicit assumptions that
// AcquireVM succeeds instantly, that an acquired VM is schedulable in the
// same interval, and that monitoring is noiseless and fresh. Like
// ExponentialFailures, every draw is a pure hash of the seed and the
// request's identity, so two runs with an identical Config produce
// byte-identical behaviour (and audit logs).
//
// All sub-configs are optional; a nil sub-config disables that fault class.
type ControlFaults struct {
	// Provisioning delays VM boot: acquired VMs enter a pending state and
	// only become schedulable — and billable — after a randomized boot time.
	Provisioning *ProvisioningFaults
	// Acquisition makes AcquireVM fail transiently with "insufficient
	// capacity" errors, optionally in bursts.
	Acquisition *AcquisitionFaults
	// Monitoring degrades View readings: probes are dropped (the monitor
	// holds its last-known-good value) or perturbed with multiplicative
	// noise before smoothing.
	Monitoring *MonitoringFaults
	// Seed decorrelates control-plane draws from the crash/preemption
	// models and between scenarios.
	Seed int64
}

// ProvisioningFaults parameterizes VM boot delays.
type ProvisioningFaults struct {
	// MeanBootSec is the mean provisioning delay, drawn exponentially per
	// acquisition. Zero disables delays.
	MeanBootSec int64
	// MaxBootSec caps a single draw (the long tail of stuck provisioning
	// requests). Defaults to 4x MeanBootSec.
	MaxBootSec int64
}

// AcquisitionFaults parameterizes transient acquisition failures.
type AcquisitionFaults struct {
	// FailProb is the baseline per-attempt probability that AcquireVM
	// returns a CapacityError.
	FailProb float64
	// PerClass overrides FailProb for specific class names (a provider can
	// be out of one instance type while others acquire fine).
	PerClass map[string]float64
	// BurstEverySec spaces error bursts: each window of this length
	// contains one burst at a seed-determined offset. Zero disables bursts.
	BurstEverySec int64
	// BurstLenSec is the burst duration. Defaults to BurstEverySec/6.
	BurstLenSec int64
	// BurstFailProb is the per-attempt failure probability during a burst.
	// Defaults to 0.95.
	BurstFailProb float64
	// AfterSec delays the onset of acquisition faults: attempts before this
	// simulation time always succeed. Lets a scenario deploy cleanly and
	// then degrade.
	AfterSec int64
}

// MonitoringFaults parameterizes degraded View readings.
type MonitoringFaults struct {
	// StaleProb is the per-probe probability that an observation is
	// dropped, leaving the monitor at its last-known-good estimate.
	StaleProb float64
	// NoiseFrac perturbs surviving observations multiplicatively by a
	// factor uniform in [1-NoiseFrac, 1+NoiseFrac). Must be < 1 so probes
	// stay positive.
	NoiseFrac float64
}

// CapacityError is the transient "insufficient capacity" failure an IaaS
// control plane returns when a class is temporarily unavailable. Detect it
// with IsCapacityError (or errors.As) to distinguish retryable failures
// from programming errors like an unknown class name or the MaxVMs quota.
type CapacityError struct {
	Class string
	Sec   int64
}

// Error implements error.
func (e *CapacityError) Error() string {
	return fmt.Sprintf("sim: insufficient %s capacity at t=%ds", e.Class, e.Sec)
}

// IsCapacityError reports whether err is (or wraps) a CapacityError.
func IsCapacityError(err error) bool {
	var ce *CapacityError
	return errors.As(err, &ce)
}

// normalize fills defaults and validates; safe on a nil receiver.
func (c *ControlFaults) normalize() error {
	if c == nil {
		return nil
	}
	if p := c.Provisioning; p != nil {
		if p.MeanBootSec < 0 {
			return fmt.Errorf("sim: mean boot delay %d < 0", p.MeanBootSec)
		}
		if p.MaxBootSec < 0 {
			return fmt.Errorf("sim: max boot delay %d < 0", p.MaxBootSec)
		}
		if p.MaxBootSec == 0 {
			p.MaxBootSec = 4 * p.MeanBootSec
		}
		if p.MaxBootSec < p.MeanBootSec {
			return fmt.Errorf("sim: max boot delay %d < mean %d", p.MaxBootSec, p.MeanBootSec)
		}
	}
	if a := c.Acquisition; a != nil {
		if !(a.FailProb >= 0 && a.FailProb <= 1) { // also rejects NaN
			return fmt.Errorf("sim: acquisition failure probability %v outside [0,1]", a.FailProb)
		}
		for name, p := range a.PerClass {
			if !(p >= 0 && p <= 1) {
				return fmt.Errorf("sim: acquisition failure probability %v for class %q outside [0,1]", p, name)
			}
		}
		if a.BurstEverySec < 0 || a.BurstLenSec < 0 {
			return fmt.Errorf("sim: burst timing (%d, %d) negative", a.BurstEverySec, a.BurstLenSec)
		}
		if a.AfterSec < 0 {
			return fmt.Errorf("sim: acquisition fault onset %d < 0", a.AfterSec)
		}
		if a.BurstEverySec > 0 {
			if a.BurstLenSec == 0 {
				a.BurstLenSec = a.BurstEverySec / 6
				if a.BurstLenSec < 1 {
					a.BurstLenSec = 1
				}
			}
			if a.BurstLenSec > a.BurstEverySec {
				return fmt.Errorf("sim: burst length %d exceeds spacing %d", a.BurstLenSec, a.BurstEverySec)
			}
			if a.BurstFailProb == 0 {
				a.BurstFailProb = 0.95
			}
		}
		if !(a.BurstFailProb >= 0 && a.BurstFailProb <= 1) {
			return fmt.Errorf("sim: burst failure probability %v outside [0,1]", a.BurstFailProb)
		}
	}
	if m := c.Monitoring; m != nil {
		if !(m.StaleProb >= 0 && m.StaleProb <= 1) {
			return fmt.Errorf("sim: monitor staleness probability %v outside [0,1]", m.StaleProb)
		}
		if !(m.NoiseFrac >= 0 && m.NoiseFrac < 1) {
			return fmt.Errorf("sim: monitor noise fraction %v outside [0,1)", m.NoiseFrac)
		}
	}
	return nil
}

// Draw-domain tags keep the fault streams independent of one another even
// when their keys collide. A tag's value seeds its stream: the blank entry
// keeps the value of a retired tag (the pairwise network probes' stale
// draw) unused, so that the tags after it keep theirs.
const (
	drawBoot = iota + 1
	drawAcquire
	drawBurstOffset
	drawStaleRate
	drawStaleCPU
	_
	drawNoiseRate
	drawNoiseCPU
)

// unit maps a draw identity to a deterministic uniform value in [0,1).
func (c *ControlFaults) unit(domain int, key uint64, sec int64) float64 {
	h := splitmix64(uint64(c.Seed)*0x9e3779b97f4a7c15 ^ uint64(domain)<<56 ^ key*0x94d049bb133111eb ^ uint64(sec)*0xbf58476d1ce4e5b9)
	return float64(h>>11) / (1 << 53)
}

// hashString folds a class name into a draw key (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// bootDelaySec draws the provisioning delay for the attempt-th acquisition,
// or 0 when provisioning faults are disabled.
func (c *ControlFaults) bootDelaySec(attempt int64) int64 {
	if c == nil || c.Provisioning == nil || c.Provisioning.MeanBootSec <= 0 {
		return 0
	}
	u := c.unit(drawBoot, uint64(attempt), 0)
	if u <= 0 {
		u = 0.5 / (1 << 53)
	}
	d := int64(-math.Log(u) * float64(c.Provisioning.MeanBootSec))
	if d > c.Provisioning.MaxBootSec {
		d = c.Provisioning.MaxBootSec
	}
	return d
}

// inBurst reports whether time sec falls inside an error burst.
func (c *ControlFaults) inBurst(sec int64) bool {
	a := c.Acquisition
	if a.BurstEverySec <= 0 {
		return false
	}
	window := sec / a.BurstEverySec
	span := a.BurstEverySec - a.BurstLenSec + 1
	off := int64(c.unit(drawBurstOffset, uint64(window), 0) * float64(span))
	rel := sec % a.BurstEverySec
	return rel >= off && rel < off+a.BurstLenSec
}

// acquireFails decides whether the attempt-th AcquireVM call, for the named
// class at time sec, hits an insufficient-capacity error.
func (c *ControlFaults) acquireFails(class string, attempt, sec int64) bool {
	if c == nil || c.Acquisition == nil {
		return false
	}
	a := c.Acquisition
	if sec < a.AfterSec {
		return false
	}
	p := a.FailProb
	if over, ok := a.PerClass[class]; ok {
		p = over
	}
	if c.inBurst(sec) && a.BurstFailProb > p {
		p = a.BurstFailProb
	}
	if p <= 0 {
		return false
	}
	return c.unit(drawAcquire, hashString(class)^uint64(attempt)*0x9e3779b97f4a7c15, sec) < p
}

// probeStale reports whether the probe identified by (domain, key) at time
// sec is dropped, leaving the monitor at its last-known-good value.
func (c *ControlFaults) probeStale(domain int, key uint64, sec int64) bool {
	return c != nil && c.Monitoring != nil && c.Monitoring.StaleProb > 0 &&
		c.unit(domain, key, sec) < c.Monitoring.StaleProb
}

// probeNoise returns the multiplicative perturbation applied to the probe
// identified by (domain, key) at time sec, in [1-NoiseFrac, 1+NoiseFrac).
func (c *ControlFaults) probeNoise(domain int, key uint64, sec int64) float64 {
	if c == nil || c.Monitoring == nil || c.Monitoring.NoiseFrac <= 0 {
		return 1
	}
	return 1 + c.Monitoring.NoiseFrac*(2*c.unit(domain, key, sec)-1)
}
