package sim

import (
	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
)

// View is the read-only window a scheduler gets onto the running system. It
// exposes what the paper's monitoring framework provides (§4-§5) and the
// heuristics read: measured data rates, smoothed per-VM performance
// coefficients, current allocation, queue lengths and throughput — not the
// engine's internal ground truth. Alg. 1 and Alg. 2 read no pairwise
// network estimate, so the View offers none.
type View struct {
	e *Engine
	// ten scopes the view to one tenant of a multi-tenant run: 0 is the
	// global (whole-graph) view, i+1 the view of cfg.Tenants[i]. A scoped
	// view translates PE and choice indices to the tenant's local numbering
	// and reports the tenant's own graph, Ω, and rates; fleet-level methods
	// (ActiveVMs, TotalCost, MaxVMs, ...) stay global — the fleet is shared.
	ten int
}

// NewView builds a read-only view over an engine, for tools and tests that
// inspect state outside a Scheduler callback.
func NewView(e *Engine) *View { return &View{e: e} }

// tenantScope returns the scoping tenant, or nil for the global view.
func (v *View) tenantScope() *Tenant {
	if v.ten == 0 {
		return nil
	}
	return &v.e.cfg.Tenants[v.ten-1]
}

// gpe translates a view-local PE index to the composite graph's numbering.
func (v *View) gpe(pe int) int {
	if t := v.tenantScope(); t != nil {
		return pe + t.LoPE
	}
	return pe
}

// Now returns the simulation time in seconds.
func (v *View) Now() int64 { return v.e.clock }

// IntervalSec returns the adaptation interval length.
func (v *View) IntervalSec() int64 { return v.e.cfg.IntervalSec }

// Graph returns the dataflow being executed — the scoping tenant's own
// graph on a tenant view.
func (v *View) Graph() *dataflow.Graph {
	if t := v.tenantScope(); t != nil {
		return t.Graph
	}
	return v.e.cfg.Graph
}

// Menu returns the VM class menu.
func (v *View) Menu() *cloud.Menu { return v.e.cfg.Menu }

// Selection returns a copy of the current alternate selection (the tenant's
// slice on a tenant view).
func (v *View) Selection() dataflow.Selection { return v.SelectionInto(nil) }

// SelectionInto appends the current alternate selection to dst (the
// tenant's slice on a tenant view) and returns it — Selection for policies
// reusing a buffer across calls.
func (v *View) SelectionInto(dst dataflow.Selection) dataflow.Selection {
	sel := v.e.sel
	if t := v.tenantScope(); t != nil {
		sel = sel[t.LoPE:t.HiPE]
	}
	return append(dst, sel...)
}

// Routing returns a copy of the current choice-group routing (the tenant's
// slice on a tenant view).
func (v *View) Routing() dataflow.Routing {
	if t := v.tenantScope(); t != nil {
		return append(dataflow.Routing(nil), v.e.routing[t.LoChoice:t.HiChoice]...)
	}
	return v.e.routing.Clone()
}

// EstimatedInputRate returns the best current estimate of the external rate
// at an input PE: the smoothed measured rate once the dataflow has run, or
// the profile's declared initial rate before t0 (the paper's "estimated
// input data rates at each input PE" given at submission).
func (v *View) EstimatedInputRate(pe int) float64 {
	pe = v.gpe(pe)
	var initial float64
	if prof, ok := v.e.cfg.Inputs[pe]; ok {
		initial = prof.Rate(v.e.clock)
	}
	return v.e.rateEst.Estimate(pe, initial)
}

// EstimatedInputRates returns estimates for every input PE — on a tenant
// view, the tenant's own inputs under its local numbering.
func (v *View) EstimatedInputRates() dataflow.InputRates { return v.EstimatedInputRatesInto(nil) }

// EstimatedInputRatesInto clears dst, fills it with EstimatedInputRates'
// estimates and returns it (a fresh map when dst is nil) — for policies
// reusing one map across calls.
func (v *View) EstimatedInputRatesInto(dst dataflow.InputRates) dataflow.InputRates {
	if dst == nil {
		dst = dataflow.InputRates{}
	}
	clear(dst)
	if t := v.tenantScope(); t != nil {
		for pe := range v.e.cfg.Inputs {
			if pe >= t.LoPE && pe < t.HiPE {
				dst[pe-t.LoPE] = v.EstimatedInputRate(pe - t.LoPE)
			}
		}
		return dst
	}
	for pe := range v.e.cfg.Inputs {
		dst[pe] = v.EstimatedInputRate(pe)
	}
	return dst
}

// VMInfo describes one active VM as the scheduler sees it.
type VMInfo struct {
	ID        int
	Class     *cloud.Class
	UsedCores int
	FreeCores int
	// CPUCoeff is the monitored (EWMA) normalized performance coefficient;
	// 1.0 for a VM never probed (assumed rated).
	CPUCoeff float64
	// SecsToHourBoundary is the time until the next paid hour.
	SecsToHourBoundary int64
	// StartSec is when the VM was acquired.
	StartSec int64
}

// ActiveVMs lists the running VMs, in id order. The slice is the engine's
// own, shared by every View of the run, each tenant's included: it is
// read-only, and valid until the next Control call or interval. The engine
// builds it at most once per interval.
func (v *View) ActiveVMs() []VMInfo { return v.e.lists().active }

// FleetCounts returns how many VMs are running and how many are still
// provisioning, without building either list.
func (v *View) FleetCounts() (active, pending int) {
	return v.e.fleet.ActiveCount(), v.e.fleet.PendingCount()
}

// PendingVM describes one VM still provisioning: acquired (and possibly
// carrying reserved cores), but not yet schedulable or billable.
type PendingVM struct {
	ID    int
	Class *cloud.Class
	// UsedCores counts cores already reserved on the provisioning VM; they
	// start processing the moment it boots.
	UsedCores int
	// ReadySec is when provisioning completes and the VM becomes
	// schedulable.
	ReadySec int64
	// StartSec is when the acquisition was issued.
	StartSec int64
}

// PendingVMs lists the VMs still provisioning, in id order. Policies use it
// to avoid double-provisioning while capacity is already on the way. Like
// ActiveVMs, the slice is the engine's own and shared: read-only, and valid
// until the next Control call or interval.
func (v *View) PendingVMs() []PendingVM { return v.e.lists().pending }

// VM returns info for one active VM.
func (v *View) VM(id int) (VMInfo, bool) {
	vm, err := v.e.fleet.Get(id)
	if err != nil || !vm.Active() {
		return VMInfo{}, false
	}
	return v.e.vmInfo(vm), true
}

// Assignment is one (VM, cores) slice of a PE's data-parallel allocation.
type Assignment struct {
	VMID  int
	Cores int
}

// Assignments returns the PE's current core allocation on running VMs, in
// VM id order.
func (v *View) Assignments(pe int) []Assignment { return v.AssignmentsInto(pe, nil) }

// AssignmentsInto appends the PE's current core allocation on running VMs to
// dst, in VM id order, and returns it — Assignments for policies reusing a
// buffer across calls.
func (v *View) AssignmentsInto(pe int, dst []Assignment) []Assignment {
	p := &v.e.pes[v.gpe(pe)]
	for s, vmID := range p.vms {
		n := p.cores[s]
		if n <= 0 {
			continue
		}
		vm, err := v.e.fleet.Get(vmID)
		if err != nil || !vm.Active() {
			continue
		}
		dst = append(dst, Assignment{VMID: vmID, Cores: n})
	}
	return dst
}

// AssignedCores returns the PE's total core count.
func (v *View) AssignedCores(pe int) int {
	total := 0
	for _, n := range v.e.pes[v.gpe(pe)].cores {
		total += n
	}
	return total
}

// EstimatedLatencySec returns the mean queueing latency observed over the
// last interval (backlog over capacity, averaged across hosting VMs), or 0
// before any interval has run.
func (v *View) EstimatedLatencySec() float64 {
	if !v.e.stepped {
		return 0
	}
	return v.e.lastLatency
}

// Omega returns the relative application throughput observed over the last
// interval — the scoping tenant's own Ω on a tenant view — or 1 before any
// interval has run.
func (v *View) Omega() float64 {
	if !v.e.stepped {
		return 1
	}
	if v.ten > 0 {
		return v.e.tenLastOmega[v.ten-1]
	}
	return v.e.lastOmega
}

// MeanOmega returns the average relative throughput over the optimization
// period so far (the constraint's left-hand side), or 1 before t0. Scoped
// to the tenant on a tenant view.
func (v *View) MeanOmega() float64 {
	if v.e.omegaN == 0 {
		return 1
	}
	if v.ten > 0 {
		return v.e.tenOmegaSum[v.ten-1] / float64(v.e.omegaN)
	}
	return v.e.omegaSum / float64(v.e.omegaN)
}

// ObservedArrivalRate returns the PE's measured arrival rate (msg/s) over
// the last interval.
func (v *View) ObservedArrivalRate(pe int) float64 {
	if !v.e.stepped {
		return 0
	}
	return v.e.lastPEIn[v.gpe(pe)]
}

// Backlog returns the messages queued for the PE across all VMs.
func (v *View) Backlog(pe int) float64 {
	return v.e.pes[v.gpe(pe)].totalQueue()
}

// TotalCost returns mu(t): dollars billed so far.
func (v *View) TotalCost() float64 { return v.e.fleet.TotalCost(v.e.clock) }

// MaxVMs returns the acquisition quota (the elasticity limit policies must
// plan within).
func (v *View) MaxVMs() int { return v.e.cfg.MaxVMs }

// TenantCount returns the number of tenants (0 for single-tenant runs).
func (v *View) TenantCount() int { return len(v.e.cfg.Tenants) }

// TenantInfo returns tenant i's descriptor (name, ranges, floor, priority).
func (v *View) TenantInfo(i int) Tenant { return v.e.cfg.Tenants[i] }

// Tenant returns a view scoped to tenant i: PE and choice indices become the
// tenant's local numbering, Graph/Selection/Routing/Omega/rates report the
// tenant's own dataflow, and fleet-level methods stay global. The view is
// shared: every call for tenant i returns the same one.
func (v *View) Tenant(i int) *View { return &v.e.tenViews[i] }

// TenantMeanOmega returns tenant i's mean relative throughput over the
// period so far, or 1 before t0.
func (v *View) TenantMeanOmega(i int) float64 {
	if v.e.omegaN == 0 {
		return 1
	}
	return v.e.tenOmegaSum[i] / float64(v.e.omegaN)
}

// TenantSpendUSD returns the cumulative dollars attributed to tenant i.
func (v *View) TenantSpendUSD(i int) float64 { return v.e.tenSpend[i] }
