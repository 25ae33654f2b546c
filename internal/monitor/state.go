package monitor

// This file is the estimator state surface used by engine checkpointing
// (internal/state): every EWMA pool can export its full state as plain,
// deterministically ordered records and rebuild itself from them. Export
// orders entries by key so the serialized form — and therefore any digest
// over it — is stable across runs, and stays byte-identical to the encoding
// the original map-backed pools produced.

// EWMAState is the complete serializable state of one EWMA estimator.
type EWMAState struct {
	Value  float64 `json:"value"`
	Primed bool    `json:"primed,omitempty"`
}

// State exports the estimator's current state.
func (e *EWMA) State() EWMAState { return EWMAState{Value: e.value, Primed: e.primed} }

// SetState overwrites the estimator's state (the smoothing factor is not
// part of the state; it stays whatever the estimator was built with).
func (e *EWMA) SetState(s EWMAState) { e.value, e.primed = s.Value, s.Primed }

// RateEntry is one key's exported rate-estimator state.
type RateEntry struct {
	Key int       `json:"key"`
	E   EWMAState `json:"e"`
}

// Export returns every tracked key's estimator state, ordered by key.
func (r *RateEstimator) Export() []RateEntry {
	out := make([]RateEntry, 0, r.n)
	for k := range r.est {
		if r.has[k] {
			out = append(out, RateEntry{Key: k, E: r.est[k].State()})
		}
	}
	return out
}

// Import replaces the estimator pool with the exported entries. Entries with
// negative keys are dropped (the pool cannot represent them).
func (r *RateEstimator) Import(entries []RateEntry) {
	r.est = nil
	r.has = nil
	r.n = 0
	for _, en := range entries {
		r.Observe(en.Key, 0)
		if en.Key >= 0 {
			r.est[en.Key].SetState(en.E)
		}
	}
}

// VMCPUEntry is one VM's exported CPU-monitor state.
type VMCPUEntry struct {
	VM      int       `json:"vm"`
	E       EWMAState `json:"e"`
	LastSec int64     `json:"lastSec"`
}

// Export returns every tracked VM's CPU estimator state, ordered by VM id.
func (m *VMMonitor) Export() []VMCPUEntry {
	out := make([]VMCPUEntry, 0, m.n)
	for vm := range m.cpu {
		if m.has[vm] {
			out = append(out, VMCPUEntry{VM: vm, E: m.cpu[vm].State(), LastSec: m.last[vm]})
		}
	}
	return out
}

// Import replaces the monitor's state with the exported entries. Entries
// with negative ids are dropped.
func (m *VMMonitor) Import(entries []VMCPUEntry) {
	m.cpu = nil
	m.last = nil
	m.has = nil
	m.n = 0
	for _, en := range entries {
		if en.VM < 0 {
			continue
		}
		m.grow(en.VM)
		if !m.has[en.VM] {
			m.has[en.VM] = true
			m.n++
		}
		m.cpu[en.VM].SetState(en.E)
		m.last[en.VM] = en.LastSec
	}
}
