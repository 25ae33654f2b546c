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

// NetEntry is one VM pair's exported estimator state (A < B).
type NetEntry struct {
	A int       `json:"a"`
	B int       `json:"b"`
	E EWMAState `json:"e"`
}

// Export folds every tracked pair up to the latest pass and returns the
// latency and bandwidth estimator states, each ordered by (A, B): the walk
// visits tracked VMs in id order, so entries come out sorted.
func (m *NetMonitor) Export() (lat, bw []NetEntry) {
	m.buildCells()
	n := len(m.ids) - len(m.free)
	byID := make([]int32, 0, n) // tracked slots in VM id order
	for _, s := range m.slot {
		if s >= 0 {
			byID = append(byID, s)
		}
	}
	for i, sa := range byID {
		for _, sb := range byID[i+1:] {
			c := m.fold(min(sa, sb), max(sa, sb))
			if !c.present {
				continue
			}
			if lat == nil {
				lat = make([]NetEntry, 0, n*(n-1)/2)
				bw = make([]NetEntry, 0, n*(n-1)/2)
			}
			a, b := m.ids[sa], m.ids[sb]
			lat = append(lat, NetEntry{A: a, B: b, E: EWMAState{Value: c.lat, Primed: c.latOK}})
			bw = append(bw, NetEntry{A: a, B: b, E: EWMAState{Value: c.bw, Primed: c.bwOK}})
		}
	}
	return lat, bw
}

// Import replaces the monitor's state with the exported entries, taken at
// the observe clock sec. The map form kept latency and bandwidth pools
// independent; the dense form stores a pair's estimators together, so a
// pair present in either list gets a cell (the missing half stays unprimed,
// which reads the same as an absent map entry did). Entries with invalid ids
// (negative, or A == B) are dropped. Each imported cell is current to sec,
// and every VM the entries name folds probes from the pass after sec on; a
// VM the entries do not name starts at the next pass that sees it.
func (m *NetMonitor) Import(lat, bw []NetEntry, sec int64) {
	m.slot, m.ids, m.since, m.free, m.cells = nil, nil, nil, nil, nil
	m.now = sec
	if len(lat) == 0 && len(bw) == 0 {
		return
	}
	valid := func(en NetEntry) bool { return en.A >= 0 && en.B >= 0 && en.A != en.B }
	for _, list := range [2][]NetEntry{lat, bw} {
		for _, en := range list {
			if valid(en) {
				m.ensureSlot(en.A)
				m.ensureSlot(en.B)
			}
		}
	}
	for s := range m.since {
		m.since[s] = sec + m.interval
	}
	m.buildCells()
	cell := func(en NetEntry) *netCell {
		sa, sb := m.slot[en.A], m.slot[en.B]
		c := &m.cells[cellIndex(min(sa, sb), max(sa, sb))]
		c.present, c.folded = true, sec
		return c
	}
	for _, en := range lat {
		if valid(en) {
			c := cell(en)
			c.lat, c.latOK = en.E.Value, en.E.Primed
		}
	}
	for _, en := range bw {
		if valid(en) {
			c := cell(en)
			c.bw, c.bwOK = en.E.Value, en.E.Primed
		}
	}
}
