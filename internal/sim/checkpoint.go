package sim

import (
	"encoding/json"
	"errors"
	"fmt"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/state"
)

// StatefulScheduler is a Scheduler whose adaptation decisions depend on
// accumulated internal state (tick counters, circuit breakers, ...).
// Checkpointing captures that state alongside the engine's so a restored
// run resumes with the policy mid-thought rather than amnesiac; stateless
// policies simply don't implement it and restore as themselves.
type StatefulScheduler interface {
	Scheduler
	// CheckpointState serializes the scheduler's mutable state. The blob is
	// opaque to the engine; it only needs to be deterministic for a given
	// state so snapshots of identical runs are byte-identical.
	CheckpointState() ([]byte, error)
	// RestoreState replaces the scheduler's mutable state with a blob
	// produced by CheckpointState.
	RestoreState([]byte) error
}

// Checkpoint captures the engine's complete mutable state as a canonical
// snapshot. Call it between intervals — after RunUntil returns — never from
// inside a scheduler callback. The engine is not consumed: the run can
// continue with another RunUntil or RunContext, and the snapshot can seed
// any number of Restore'd engines (it shares no memory with the engine).
// A SummaryOnly engine cannot checkpoint: it keeps no metric rows for the
// snapshot to carry.
func (e *Engine) Checkpoint() (*state.Snapshot, error) {
	if e.cfg.SummaryOnly {
		return nil, errors.New("sim: checkpoint: a summary-only engine keeps no metric rows")
	}
	s := &state.Snapshot{
		GraphPEs:    e.cfg.Graph.N(),
		IntervalSec: e.cfg.IntervalSec,
		HorizonSec:  e.cfg.HorizonSec,
		Seed:        e.cfg.Seed,
		ClockSec:    e.clock,
		Deployed:    e.deployed,
		Stepped:     e.stepped,
		Selection:   append([]int(nil), e.sel...),
		Routing:     append([]int(nil), e.routing...),
		Fleet:       e.fleet.Export(),

		LastOmega:   e.lastOmega,
		OmegaSum:    e.omegaSum,
		OmegaN:      e.omegaN,
		LastPEIn:    append([]float64(nil), e.lastPEIn...),
		LastLatency: e.lastLatency,

		MigratedBytes:   e.migratedBytes,
		CrashCount:      e.crashCount,
		Preemptions:     e.preemptions,
		LostMessages:    e.lostMessages,
		AcquireAttempts: e.acquireAttempts,
		AcquireFailures: e.acquireFailures,
		StaleProbes:     e.staleProbes,
		CrashEvents:     e.crashEvents,
		PreemptEvents:   e.preemptEvents,
		PrevCostUSD:     e.prevCost,
		Violations:      e.InvariantViolations(),

		Metrics: e.collector.Points(),
		Audit:   append([]obs.Event(nil), e.auditLog...),
	}
	// Arena slots are ascending by VM id (-1 first), the same order the
	// map engine's sorted-key export produced.
	for pe := range e.pes {
		p := &e.pes[pe]
		for sl, vmID := range p.vms {
			if p.cores[sl] > 0 {
				s.Cores = append(s.Cores, state.CoreCell{PE: pe, VM: vmID, Cores: p.cores[sl]})
			}
		}
	}
	for pe := range e.pes {
		p := &e.pes[pe]
		for sl, vmID := range p.vms {
			if p.hasQ[sl] {
				s.Queues = append(s.Queues, state.QueueCell{PE: pe, VM: vmID, Queue: p.queue[sl]})
			}
		}
	}
	s.RateEst = e.rateEst.Export()
	s.VMCPU = e.vmMon.Export()

	if nt := len(e.cfg.Tenants); nt > 0 {
		s.TenantOmega = append([]float64(nil), e.tenLastOmega...)
		s.TenantOmegaSum = append([]float64(nil), e.tenOmegaSum...)
		s.TenantSpendUSD = append([]float64(nil), e.tenSpend...)
		s.TenantPrevCostUSD = e.tenPrevCost
		s.TenantSeriesOmega, s.TenantSeriesGamma, s.TenantSeriesSpend = e.collector.TenantSeries()
	}

	if e.sched != nil {
		s.SchedulerName = e.sched.Name()
	}
	switch {
	case e.pendingSchedState != nil:
		// Restored but not yet resumed: the stashed blob is still the truth.
		s.SchedulerState = append(json.RawMessage(nil), e.pendingSchedState...)
	default:
		if ss, ok := e.sched.(StatefulScheduler); ok {
			blob, err := ss.CheckpointState()
			if err != nil {
				return nil, fmt.Errorf("sim: checkpoint scheduler state (%s): %w", e.sched.Name(), err)
			}
			s.SchedulerState = blob
		}
	}
	return s, nil
}

// Restore builds a fresh engine from a snapshot and a config. The config
// must agree with the snapshot on the identity guards (graph size, interval,
// seed) — everything deterministic about the world — while the checker and
// audit come from the config, and a tracer, gauges or profiler is attached
// to the restored engine (SetTracer, SetGauges, SetProfiler), so a restored
// run can be observed differently than the original. Driving the restored
// engine with RunUntil/RunContext and the same scheduler continues the run
// bit-identically to one that was never checkpointed; multiple engines may
// be restored from one snapshot (for forked what-if runs) since no state is
// shared with the snapshot or between restores.
func Restore(snap *state.Snapshot, cfg Config) (*Engine, error) {
	if snap == nil {
		return nil, fmt.Errorf("sim: restore nil snapshot")
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	c := e.cfg // normalized
	n := c.Graph.N()
	switch {
	case snap.GraphPEs != n:
		return nil, fmt.Errorf("sim: restore: snapshot has %d PEs, graph has %d", snap.GraphPEs, n)
	case snap.IntervalSec != c.IntervalSec:
		return nil, fmt.Errorf("sim: restore: snapshot interval %ds, config %ds", snap.IntervalSec, c.IntervalSec)
	case snap.Seed != c.Seed:
		return nil, fmt.Errorf("sim: restore: snapshot seed %d, config %d", snap.Seed, c.Seed)
	case snap.ClockSec < 0 || snap.ClockSec%c.IntervalSec != 0:
		return nil, fmt.Errorf("sim: restore: clock %ds is not an interval boundary", snap.ClockSec)
	case snap.ClockSec > c.HorizonSec:
		return nil, fmt.Errorf("sim: restore: clock %ds past horizon %ds", snap.ClockSec, c.HorizonSec)
	case len(snap.Selection) != n:
		return nil, fmt.Errorf("sim: restore: selection covers %d PEs, want %d", len(snap.Selection), n)
	}
	e.clock = snap.ClockSec
	e.deployed = snap.Deployed
	e.stepped = snap.Stepped
	e.sel = append(dataflow.Selection(nil), snap.Selection...)
	if err := e.sel.Validate(c.Graph); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	if snap.Routing != nil {
		e.routing = append(dataflow.Routing(nil), snap.Routing...)
		if err := e.routing.Validate(c.Graph); err != nil {
			return nil, fmt.Errorf("sim: restore: %w", err)
		}
	}
	if err := e.fleet.Import(snap.Fleet); err != nil {
		return nil, fmt.Errorf("sim: restore: %w", err)
	}
	// The cells must agree with the fleet they were exported with: each
	// (PE, VM) pair once, on a VM still running or booting, and a VM's cells
	// summing to the cores its record holds.
	cellCores := make([]int, len(e.fleet.All()))
	for _, cell := range snap.Cores {
		if cell.PE < 0 || cell.PE >= n {
			return nil, fmt.Errorf("sim: restore: core cell for PE %d outside graph", cell.PE)
		}
		if cell.Cores <= 0 {
			return nil, fmt.Errorf("sim: restore: core cell (%d,%d) has %d cores", cell.PE, cell.VM, cell.Cores)
		}
		vm, err := e.fleet.Get(cell.VM)
		if err != nil {
			return nil, fmt.Errorf("sim: restore: core cell for unknown VM %d", cell.VM)
		}
		if vm.Stopped() {
			return nil, fmt.Errorf("sim: restore: core cell (%d,%d) on released VM %d", cell.PE, cell.VM, cell.VM)
		}
		if cell.Cores > vm.Class.Cores {
			return nil, fmt.Errorf("sim: restore: core cell (%d,%d) holds %d cores, VM %d has %d", cell.PE, cell.VM, cell.Cores, cell.VM, vm.Class.Cores)
		}
		p := &e.pes[cell.PE]
		sl := p.ensureSlot(cell.VM)
		if p.cores[sl] != 0 {
			return nil, fmt.Errorf("sim: restore: repeated core cell (%d,%d) for VM %d", cell.PE, cell.VM, cell.VM)
		}
		p.cores[sl] = cell.Cores
		cellCores[cell.VM] += cell.Cores
	}
	for id, vm := range e.fleet.All() {
		if cellCores[id] != vm.UsedCores {
			return nil, fmt.Errorf("sim: restore: VM %d records %d used cores, its core cells hold %d", id, vm.UsedCores, cellCores[id])
		}
	}
	for _, cell := range snap.Queues {
		if cell.PE < 0 || cell.PE >= n {
			return nil, fmt.Errorf("sim: restore: queue cell for PE %d outside graph", cell.PE)
		}
		if cell.VM < -1 || cell.Queue < 0 {
			return nil, fmt.Errorf("sim: restore: bad queue cell (%d,%d,%g)", cell.PE, cell.VM, cell.Queue)
		}
		p := &e.pes[cell.PE]
		sl := p.ensureSlot(cell.VM)
		p.queue[sl] = cell.Queue
		p.hasQ[sl] = true
	}
	// The dense monitor pools size themselves by the largest imported id, so
	// reject ids a legitimate snapshot cannot contain (the fleet export covers
	// every VM that ever existed) before they can inflate the pools.
	for _, en := range snap.RateEst {
		if en.Key < 0 || en.Key >= n {
			return nil, fmt.Errorf("sim: restore: rate-estimator key %d outside graph", en.Key)
		}
	}
	for _, en := range snap.VMCPU {
		if err := e.checkProbedVM(en.VM); err != nil {
			return nil, err
		}
	}
	// Older snapshots also carry pairwise network estimators (NetLat,
	// NetBW) and last-interval output rates (LastPEOut, LastPEExp); no
	// engine state reads them, so they are ignored.
	e.rateEst.Import(snap.RateEst)
	e.vmMon.Import(snap.VMCPU)
	e.rebuildFlowCaches()

	e.lastOmega = snap.LastOmega
	e.omegaSum = snap.OmegaSum
	e.omegaN = snap.OmegaN
	if len(snap.LastPEIn) == n {
		copy(e.lastPEIn, snap.LastPEIn)
	}
	e.lastLatency = snap.LastLatency

	e.migratedBytes = snap.MigratedBytes
	e.crashCount = snap.CrashCount
	e.preemptions = snap.Preemptions
	e.lostMessages = snap.LostMessages
	e.acquireAttempts = snap.AcquireAttempts
	e.acquireFailures = snap.AcquireFailures
	e.staleProbes = snap.StaleProbes
	e.crashEvents = snap.CrashEvents
	e.preemptEvents = snap.PreemptEvents
	e.prevCost = snap.PrevCostUSD
	e.restoredViolations = snap.Violations

	// Ω's tally and the metric series both advance once per interval, so a
	// snapshot whose row count disagrees with its tally lost or gained rows.
	if len(snap.Metrics) != snap.OmegaN {
		return nil, fmt.Errorf("sim: restore: snapshot has %d metric rows for %d intervals", len(snap.Metrics), snap.OmegaN)
	}
	for _, p := range snap.Metrics {
		if err := e.collector.Add(p); err != nil {
			return nil, fmt.Errorf("sim: restore: %w", err)
		}
	}
	if nt := len(c.Tenants); nt > 0 {
		if len(snap.TenantOmega) != nt || len(snap.TenantOmegaSum) != nt || len(snap.TenantSpendUSD) != nt {
			return nil, fmt.Errorf("sim: restore: snapshot carries %d/%d/%d tenant tallies, config has %d tenants",
				len(snap.TenantOmega), len(snap.TenantOmegaSum), len(snap.TenantSpendUSD), nt)
		}
		copy(e.tenLastOmega, snap.TenantOmega)
		copy(e.tenOmegaSum, snap.TenantOmegaSum)
		copy(e.tenSpend, snap.TenantSpendUSD)
		e.tenPrevCost = snap.TenantPrevCostUSD
		if err := e.collector.ImportTenantSeries(
			snap.TenantSeriesOmega, snap.TenantSeriesGamma, snap.TenantSeriesSpend); err != nil {
			return nil, fmt.Errorf("sim: restore: %w", err)
		}
	} else if len(snap.TenantOmega) > 0 {
		return nil, fmt.Errorf("sim: restore: snapshot carries %d tenant tallies, config has none",
			len(snap.TenantOmega))
	}
	e.auditLog = append([]obs.Event(nil), snap.Audit...)
	if snap.SchedulerState != nil {
		e.pendingSchedState = append([]byte(nil), snap.SchedulerState...)
	}
	return e, nil
}

// checkProbedVM rejects a restored monitor entry for a VM the CPU monitor
// could not be tracking: one the fleet never had, or one that is not active.
// Pending VMs are never probed and both release paths forget a VM, so only
// a crafted snapshot names them; imported, such an entry would be exported
// again forever.
func (e *Engine) checkProbedVM(id int) error {
	vm, err := e.fleet.Get(id)
	switch {
	case err != nil:
		return fmt.Errorf("sim: restore: cpu-monitor entry for unknown VM %d", id)
	case vm.Stopped():
		return fmt.Errorf("sim: restore: cpu-monitor entry for released VM %d", id)
	case vm.Pending():
		return fmt.Errorf("sim: restore: cpu-monitor entry for pending VM %d", id)
	}
	return nil
}
