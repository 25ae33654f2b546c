package sim

import (
	"fmt"

	"dynamicdf/internal/obs"
)

// Control is the interface of the control surface a scheduler acts through
// (§5's runtime controls): switch a PE's alternate or route, acquire or
// release VMs, and move CPU cores between PEs and VMs. The engine's Actions
// implements it directly; middleware such as resilient.Actions wraps one
// Control in another to add retries, circuit breaking and fallbacks without
// the policy noticing.
type Control interface {
	// SelectAlternate activates alternate alt for PE pe.
	SelectAlternate(pe, alt int) error
	// SelectRoute activates target index target of choice group group.
	SelectRoute(group, target int) error
	// AcquireVM starts a new VM of the named class and returns its id. With
	// control-plane faults enabled the VM may come up pending (schedulable
	// only after its boot delay) or the call may fail with a CapacityError.
	AcquireVM(className string) (int, error)
	// ReleaseVM stops (or, while pending, cancels) a VM.
	ReleaseVM(vmID int) error
	// AssignCores gives PE pe n additional cores on VM vmID.
	AssignCores(pe, vmID, n int) error
	// UnassignCores takes n cores of PE pe on VM vmID back.
	UnassignCores(pe, vmID, n int) error
	// Log appends a free-form entry to the audit log (no-op unless
	// Config.Audit), so middleware decisions — breaker trips, fallbacks,
	// degradations — land in the same decision trace as the actions.
	Log(action, detail string)
}

// DecisionSink is the optional provenance side-channel of a Control: a
// policy that explains its elasticity decisions type-asserts its Control to
// this interface and, when DecisionsObserved reports true, hands each
// decision's structured provenance to Decide. Middleware wrapping a Control
// should forward both methods to the inner surface (annotating the
// decision on the way through, e.g. with open-breaker state).
type DecisionSink interface {
	// Decide records one structured elasticity decision in the audit/trace
	// stream as an obs.EventDecision entry.
	Decide(d obs.Decision)
	// DecisionsObserved reports whether Decide lands anywhere (a tracer is
	// attached or auditing is on), so policies can skip assembling
	// provenance nobody will see.
	DecisionsObserved() bool
}

// Actions is the engine's own control surface (§5's runtime controls). The
// engine enforces every billing and consistency consequence — hour-boundary
// charges, buffer migration on release, no oversubscription — so a buggy
// policy cannot corrupt the run.
type Actions struct {
	e *Engine
}

var _ Control = (*Actions)(nil)

// NewActions builds a control surface over an engine, for tools and tests
// that act outside a Scheduler callback.
func NewActions(e *Engine) *Actions { return &Actions{e: e} }

// SelectAlternate activates alternate alt for PE pe. Switching is legal at
// any interval boundary because PEs are stateless across messages (§5).
func (a *Actions) SelectAlternate(pe, alt int) error {
	g := a.e.cfg.Graph
	if pe < 0 || pe >= g.N() {
		return fmt.Errorf("sim: select alternate on unknown PE %d", pe)
	}
	if alt < 0 || alt >= len(g.PEs[pe].Alternates) {
		return fmt.Errorf("sim: PE %q has no alternate %d", g.PEs[pe].Name, alt)
	}
	a.e.sel[pe] = alt
	a.e.gammaDirty = true
	a.e.audit(AuditEntry{Action: "select-alternate", PE: pe, N: alt,
		Detail: g.PEs[pe].Alternates[alt].Name})
	return nil
}

// SelectRoute activates target index target of choice group group — the
// dynamic-paths control (§9): the whole sub-path behind the previous route
// stops receiving messages, the newly routed one starts.
func (a *Actions) SelectRoute(group, target int) error {
	g := a.e.cfg.Graph
	if group < 0 || group >= len(g.Choices) {
		return fmt.Errorf("sim: unknown choice group %d", group)
	}
	if target < 0 || target >= len(g.Choices[group].Targets) {
		return fmt.Errorf("sim: choice group %q has no target %d", g.Choices[group].Name, target)
	}
	a.e.routing[group] = target
	a.e.rebuildFlowCaches()
	a.e.audit(AuditEntry{Action: "select-route", PE: g.Choices[group].From, N: target,
		Detail: g.Choices[group].Name})
	return nil
}

// AcquireVM starts a new VM of the named class and returns its id. Without
// control-plane faults the VM is schedulable and billed from the current
// interval. Under ControlFaults the attempt may fail with a transient
// CapacityError, and a successful acquisition may return a pending VM that
// becomes schedulable — and billable — only after its randomized boot time
// (cores may still be reserved on it meanwhile).
func (a *Actions) AcquireVM(className string) (int, error) {
	class, ok := a.e.cfg.Menu.ByName(className)
	if !ok {
		return 0, fmt.Errorf("sim: unknown VM class %q", className)
	}
	if a.e.fleet.ActiveCount()+a.e.fleet.PendingCount() >= a.e.cfg.MaxVMs {
		if a.e.fleetFull == nil {
			a.e.fleetFull = fmt.Errorf("sim: fleet at MaxVMs=%d", a.e.cfg.MaxVMs)
		}
		return 0, a.e.fleetFull
	}
	cf := a.e.cfg.ControlFaults
	attempt := a.e.acquireAttempts
	a.e.acquireAttempts++
	if cf.acquireFails(class.Name, attempt, a.e.clock) {
		a.e.acquireFailures++
		a.e.audit(AuditEntry{Action: "acquire-failed", Detail: class.Name})
		return 0, &CapacityError{Class: class.Name, Sec: a.e.clock}
	}
	boot := cf.bootDelaySec(attempt)
	vm, err := a.e.fleet.AcquireDelayed(class, a.e.clock, a.e.clock+boot)
	if err != nil {
		return 0, err
	}
	vm.TraceID = a.e.vmTraceID(vm.ID)
	a.e.listAcquired(vm)
	if boot > 0 {
		a.e.audit(AuditEntry{Action: "pending-vm", VM: vm.ID, N: int(boot), Detail: class.Name})
	} else {
		a.e.audit(AuditEntry{Action: "acquire-vm", VM: vm.ID, Detail: class.Name})
	}
	return vm.ID, nil
}

// ReleaseVM stops a VM. All cores must have been unassigned first;
// remaining message buffers were already migrated by UnassignCores.
func (a *Actions) ReleaseVM(vmID int) error {
	// Migrate any residual buffered messages before the VM disappears. A
	// slot that held them without cores is one a restore left behind: it is
	// empty now, and goes. A slot with cores stays, so that a release that
	// then fails leaves the PE's placement as it was.
	for pe := range a.e.pes {
		p := &a.e.pes[pe]
		if s := p.slotOf(vmID); s >= 0 && p.queue[s] > 0 {
			a.e.migrateQueue(pe, vmID)
			if p.cores[s] == 0 {
				p.dropSlot(s)
			}
		}
	}
	if err := a.e.fleet.Release(vmID, a.e.clock); err != nil {
		return err
	}
	a.e.listReleased(vmID)
	a.e.vmMon.Forget(vmID)
	a.e.audit(AuditEntry{Action: "release-vm", VM: vmID})
	return nil
}

// AssignCores gives PE pe n additional cores on VM vmID.
func (a *Actions) AssignCores(pe, vmID, n int) error {
	g := a.e.cfg.Graph
	if pe < 0 || pe >= g.N() {
		return fmt.Errorf("sim: assign cores to unknown PE %d", pe)
	}
	if err := a.e.fleet.AssignCores(vmID, n, a.e.clock); err != nil {
		return err
	}
	a.e.listCoresChanged(vmID)
	p := &a.e.pes[pe]
	p.cores[p.ensureSlot(vmID)] += n
	a.e.audit(AuditEntry{Action: "assign-cores", PE: pe, VM: vmID, N: n})
	return nil
}

// UnassignCores takes n cores of PE pe on VM vmID back. If the PE no longer
// runs on that VM, its buffered messages there migrate to its remaining
// VMs, paying the network transfer (§5).
func (a *Actions) UnassignCores(pe, vmID, n int) error {
	g := a.e.cfg.Graph
	if pe < 0 || pe >= g.N() {
		return fmt.Errorf("sim: unassign cores from unknown PE %d", pe)
	}
	p := &a.e.pes[pe]
	s := p.slotOf(vmID)
	have := 0
	if s >= 0 {
		have = p.cores[s]
	}
	if n <= 0 || n > have {
		return fmt.Errorf("sim: PE %q has %d cores on VM %d, cannot unassign %d",
			g.PEs[pe].Name, have, vmID, n)
	}
	if err := a.e.fleet.UnassignCores(vmID, n); err != nil {
		return err
	}
	a.e.listCoresChanged(vmID)
	if have == n {
		p.cores[s] = 0
		if p.queue[s] > 0 {
			a.e.migrateQueue(pe, vmID)
		}
		p.dropSlot(s)
	} else {
		p.cores[s] = have - n
	}
	a.e.audit(AuditEntry{Action: "unassign-cores", PE: pe, VM: vmID, N: n})
	return nil
}

// MovePE migrates all of the PE's cores from one VM to another (scale
// out/in across instances, §5's PE migration control). The destination must
// have enough free cores.
func (a *Actions) MovePE(pe, fromVM, toVM, n int) error {
	if fromVM == toVM {
		return fmt.Errorf("sim: move PE %d onto the same VM %d", pe, fromVM)
	}
	if err := a.AssignCores(pe, toVM, n); err != nil {
		return err
	}
	if err := a.UnassignCores(pe, fromVM, n); err != nil {
		// Roll back the assignment to stay consistent.
		_ = a.UnassignCores(pe, toVM, n)
		return err
	}
	return nil
}

// Log implements Control: it appends a free-form audit entry (no-op unless
// Config.Audit is set).
func (a *Actions) Log(action, detail string) {
	a.e.audit(AuditEntry{Action: action, Detail: detail})
}

var _ DecisionSink = (*Actions)(nil)

// Decide implements DecisionSink: the decision lands in the audit log and
// the trace stream through the same path as control actions, so the two
// views of a run stay 1:1.
func (a *Actions) Decide(d obs.Decision) {
	a.e.audit(AuditEntry{Action: obs.EventDecision, PE: d.PE, Decision: &d})
}

// DecisionsObserved implements DecisionSink.
func (a *Actions) DecisionsObserved() bool {
	return a.e.tracer != nil || a.e.cfg.Audit
}
