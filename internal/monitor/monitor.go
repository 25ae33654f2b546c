// Package monitor implements the monitoring framework the paper presumes
// (§4): a component that "periodically and noninvasively probes the
// performance of the cloud VMs and their network connectivity" and measures
// dataflow message rates. In the simulator the probes read the trace
// provider; the estimators here smooth those observations into the values
// the runtime heuristics consume, exactly as a real deployment would smooth
// noisy probe results.
//
// All pools store their estimators in dense slices indexed by the small
// integer ids the simulator hands out (PE indices, VM ids), so estimator
// lookup never hashes. The pairwise network monitor folds its probes on
// demand (see NetMonitor), so an observe pass costs O(V), not O(V^2).
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

// NewEWMA returns an estimator with smoothing factor alpha in (0, 1]:
// higher alpha weights recent observations more.
func NewEWMA(alpha float64) (*EWMA, error) {
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("monitor: ewma alpha %v outside (0,1]", alpha)
	}
	return &EWMA{alpha: alpha}, nil
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

// Keys returns the number of tracked keys.
func (r *RateEstimator) Keys() int { return r.n }

// Probe is one synthetic-benchmark measurement of a VM or VM pair.
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

// LastProbe returns the time of the VM's latest probe.
func (m *VMMonitor) LastProbe(vmID int) (int64, bool) {
	if vmID < 0 || vmID >= len(m.cpu) || !m.has[vmID] {
		return 0, false
	}
	return m.last[vmID], true
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

// Tracked returns how many VMs have state.
func (m *VMMonitor) Tracked() int { return m.n }

// NetProbe returns one probe of the VM pair a < b, taken by the observe pass
// at clock sec: the measured latency (seconds) and bandwidth (Mbps), or ok
// false when the probe was dropped. It must be a pure function of its
// arguments, because NetMonitor may call it long after sec, and more than
// once for the same arguments.
type NetProbe func(a, b int, sec int64) (latSec, bwMbps float64, ok bool)

// netCell holds both estimators of one live VM pair, unpacked: the smoothing
// factor lives once on the monitor, so a cell is 4 words instead of 2 EWMA
// structs and a clock. folded is the observe clock the cell is current to
// (0 before its first fold).
type netCell struct {
	lat, bw     float64
	folded      int64
	latOK, bwOK bool // primed
	present     bool
}

// isFinite reports x is neither NaN nor an infinity (x-x is 0 exactly for
// finite x, NaN otherwise).
func isFinite(x float64) bool { return x-x == 0 }

// NetMonitor smooths pairwise latency/bandwidth probes, folding them on
// demand. A pair of VMs is probed at every observe pass at which both are
// active. A VM stays active from the first pass that saw it until it is
// forgotten, so a pair's probes are every pass from the later of the two
// first sightings up to the latest pass. The observe stage therefore records
// only each VM's first pass (O(V)); a pair's estimators catch up on its
// probes, in clock order, when the pair is read or exported. Both VMs of a
// tracked pair are seen by every pass, so the latest pass that saw any VM
// is the latest pass for every tracked pair.
//
// Internally each tracked VM id maps to a compact slot (slots are recycled
// by ForgetVM), and pair state lives in a triangular slice indexed by the
// slot pair. The slice is built when a pair is first read, imported or
// exported, and from then on grows by one row per new slot.
type NetMonitor struct {
	alpha    float64
	interval int64     // seconds between observe passes
	probe    NetProbe  // the pair probe folded on demand
	now      int64     // clock of the latest pass that saw a VM
	slot     []int32   // VM id -> slot, -1 when untracked
	ids      []int     // slot -> VM id, -1 when free
	since    []int64   // slot -> clock of the first pass that saw the VM
	free     []int32   // recycled slots
	cells    []netCell // nil until a pair is first read, imported or exported
}

// NewNetMonitor returns a pairwise network monitor whose observe passes are
// intervalSec apart and whose pairs are probed by probe.
func NewNetMonitor(alpha float64, intervalSec int64, probe NetProbe) (*NetMonitor, error) {
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("monitor: net alpha %v outside (0,1]", alpha)
	}
	if intervalSec <= 0 {
		return nil, fmt.Errorf("monitor: net probe interval %ds not positive", intervalSec)
	}
	return &NetMonitor{alpha: alpha, interval: intervalSec, probe: probe}, nil
}

// cellIndex maps an ordered slot pair s < t into the triangular cell slice.
// Rows are laid out by the larger slot, so adding a slot only appends cells.
func cellIndex(s, t int32) int { return int(t)*int(t-1)/2 + int(s) }

// slotOf returns the VM's slot or -1.
func (m *NetMonitor) slotOf(vmID int) int32 {
	if vmID < 0 || vmID >= len(m.slot) {
		return -1
	}
	return m.slot[vmID]
}

// ensureSlot returns the VM's slot, assigning one if needed.
func (m *NetMonitor) ensureSlot(vmID int) int32 {
	for len(m.slot) <= vmID {
		m.slot = append(m.slot, -1)
	}
	if s := m.slot[vmID]; s >= 0 {
		return s
	}
	var s int32
	if n := len(m.free); n > 0 {
		s = m.free[n-1]
		m.free = m.free[:n-1]
		m.ids[s] = vmID
	} else {
		s = int32(len(m.ids))
		m.ids = append(m.ids, vmID)
		m.since = append(m.since, 0)
		if m.cells != nil {
			m.cells = append(m.cells, make([]netCell, s)...)
		}
	}
	m.slot[vmID] = s
	return s
}

// buildCells sizes the cell table for the current slots, once.
func (m *NetMonitor) buildCells() {
	if m.cells == nil {
		m.cells = make([]netCell, cellIndex(0, int32(len(m.ids))))
	}
}

// Observe records that the VM was active in the observe pass at clock sec.
// Call it for every active VM of every pass, passes in clock order. A VM's
// first pass starts its pairs' probe history.
func (m *NetMonitor) Observe(vmID int, sec int64) {
	m.now = sec
	if m.slotOf(vmID) < 0 {
		m.since[m.ensureSlot(vmID)] = sec
	}
}

// fold brings the cell of slots s < t up to the latest pass, replaying the
// pair's probes since it was last folded in clock order. A probe with a
// negative latency or a non-positive bandwidth is dropped without making the
// pair present; a NaN or infinite half is dropped on its own.
func (m *NetMonitor) fold(s, t int32) *netCell {
	c := &m.cells[cellIndex(s, t)]
	from := max(c.folded+m.interval, m.since[s], m.since[t])
	if from > m.now {
		return c
	}
	a, b := m.ids[s], m.ids[t]
	if a > b {
		a, b = b, a
	}
	for k := from; k <= m.now; k += m.interval {
		lat, bw, ok := m.probe(a, b, k)
		if !ok || lat < 0 || bw <= 0 {
			continue
		}
		c.present = true
		if isFinite(lat) {
			if c.latOK {
				c.lat += m.alpha * (lat - c.lat)
			} else {
				c.lat, c.latOK = lat, true
			}
		}
		if isFinite(bw) {
			if c.bwOK {
				c.bw += m.alpha * (bw - c.bw)
			} else {
				c.bw, c.bwOK = bw, true
			}
		}
	}
	c.folded = m.now
	return c
}

// pair returns the folded cell of two tracked VMs, or nil.
func (m *NetMonitor) pair(a, b int) *netCell {
	sa, sb := m.slotOf(a), m.slotOf(b)
	if sa < 0 || sb < 0 || sa == sb {
		return nil
	}
	if sa > sb {
		sa, sb = sb, sa
	}
	m.buildCells()
	return m.fold(sa, sb)
}

// Latency returns the smoothed latency for the pair or def.
func (m *NetMonitor) Latency(a, b int, def float64) float64 {
	if c := m.pair(a, b); c != nil && c.present && c.latOK {
		return c.lat
	}
	return def
}

// Bandwidth returns the smoothed bandwidth for the pair or def — the paper
// uses rated values at deployment and monitored values at runtime.
func (m *NetMonitor) Bandwidth(a, b int, def float64) float64 {
	if c := m.pair(a, b); c != nil && c.present && c.bwOK {
		return c.bw
	}
	return def
}

// ForgetVM drops all pairs touching the VM and recycles its slot.
func (m *NetMonitor) ForgetVM(vmID int) {
	s := m.slotOf(vmID)
	if s < 0 {
		return
	}
	if m.cells != nil {
		for t := int32(0); t < int32(len(m.ids)); t++ {
			if t == s || m.ids[t] < 0 {
				continue
			}
			m.cells[cellIndex(min(s, t), max(s, t))] = netCell{}
		}
	}
	m.slot[vmID] = -1
	m.ids[s] = -1
	m.since[s] = 0
	m.free = append(m.free, s)
}
