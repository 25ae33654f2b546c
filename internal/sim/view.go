package sim

import (
	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
)

// View is the read-only window a scheduler gets onto the running system. It
// exposes exactly what the paper's monitoring framework provides (§4-§5):
// measured data rates, smoothed per-VM performance coefficients, pairwise
// network behaviour, current allocation, queue lengths and throughput — not
// the engine's internal ground truth.
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
func (v *View) Selection() dataflow.Selection {
	if t := v.tenantScope(); t != nil {
		return append(dataflow.Selection(nil), v.e.sel[t.LoPE:t.HiPE]...)
	}
	return v.e.sel.Clone()
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
func (v *View) EstimatedInputRates() dataflow.InputRates {
	in := dataflow.InputRates{}
	if t := v.tenantScope(); t != nil {
		for pe := range v.e.cfg.Inputs {
			if pe >= t.LoPE && pe < t.HiPE {
				in[pe-t.LoPE] = v.EstimatedInputRate(pe - t.LoPE)
			}
		}
		return in
	}
	for pe := range v.e.cfg.Inputs {
		in[pe] = v.EstimatedInputRate(pe)
	}
	return in
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

// ActiveVMs lists the running VMs, in id order.
func (v *View) ActiveVMs() []VMInfo { return v.ActiveVMsInto(nil) }

// ActiveVMsInto appends the running VMs to dst, in id order, and returns it —
// ActiveVMs for policies reusing a buffer across calls.
func (v *View) ActiveVMsInto(dst []VMInfo) []VMInfo {
	for _, vm := range v.e.fleet.All() {
		if vm.Active() {
			dst = append(dst, v.vmInfo(vm))
		}
	}
	return dst
}

// FleetCounts returns how many VMs are running and how many are still
// provisioning, without building either list.
func (v *View) FleetCounts() (active, pending int) {
	return v.e.fleet.ActiveCount(), v.e.fleet.PendingCount()
}

// vmInfo is the scheduler's picture of one VM.
func (v *View) vmInfo(vm *cloud.VM) VMInfo {
	return VMInfo{
		ID:                 vm.ID,
		Class:              vm.Class,
		UsedCores:          vm.UsedCores,
		FreeCores:          vm.FreeCores(),
		CPUCoeff:           v.e.vmMon.CPUCoeff(vm.ID, 1.0),
		SecsToHourBoundary: vm.SecondsToHourBoundary(v.e.clock),
		StartSec:           vm.StartSec,
	}
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
// to avoid double-provisioning while capacity is already on the way.
func (v *View) PendingVMs() []PendingVM {
	var out []PendingVM
	for _, vm := range v.e.fleet.Pending() {
		out = append(out, PendingVM{ID: vm.ID, Class: vm.Class, UsedCores: vm.UsedCores,
			ReadySec: vm.ReadySec, StartSec: vm.StartSec})
	}
	return out
}

// VM returns info for one active VM.
func (v *View) VM(id int) (VMInfo, bool) {
	vm, err := v.e.fleet.Get(id)
	if err != nil || !vm.Active() {
		return VMInfo{}, false
	}
	return v.vmInfo(vm), true
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

// MonitoredCapacity returns the PE's processing capacity in msg/s computed
// from monitored coefficients (what the heuristics believe, not ground
// truth).
func (v *View) MonitoredCapacity(pe int) float64 {
	pe = v.gpe(pe)
	alt := v.e.sel.Alt(v.e.cfg.Graph, pe)
	total := 0.0
	p := &v.e.pes[pe]
	for s, vmID := range p.vms {
		n := p.cores[s]
		if n <= 0 {
			continue
		}
		vm, err := v.e.fleet.Get(vmID)
		if err != nil || !vm.Active() {
			continue
		}
		coeff := v.e.vmMon.CPUCoeff(vmID, 1.0)
		total += float64(n) * vm.Class.CoreSpeed * coeff / alt.Cost
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

// PEThroughput returns the PE's own last-interval relative throughput
// (observed output / expected output), 1 before any interval. The
// deployment heuristics use the lowest value to find the bottleneck.
func (v *View) PEThroughput(pe int) float64 {
	if !v.e.stepped {
		return 1
	}
	pe = v.gpe(pe)
	exp := v.e.lastPEExp[pe]
	if exp <= 0 {
		return 1
	}
	r := v.e.lastPEOut[pe] / exp
	if r > 1 {
		r = 1
	}
	return r
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

// Bandwidth returns the monitored bandwidth (Mbps) between two VMs, falling
// back to the rated 100 Mbps deployment assumption.
func (v *View) Bandwidth(a, b int) float64 {
	return v.e.netMon.Bandwidth(a, b, 100)
}

// Latency returns the monitored latency (seconds) between two VMs.
func (v *View) Latency(a, b int) float64 {
	return v.e.netMon.Latency(a, b, 0.0005)
}

// TotalCost returns mu(t): dollars billed so far.
func (v *View) TotalCost() float64 { return v.e.fleet.TotalCost(v.e.clock) }

// MaxVMs returns the acquisition quota (the elasticity limit policies must
// plan within).
func (v *View) MaxVMs() int { return v.e.cfg.MaxVMs }

// HourlyBurnRate returns the active fleet's $/hour.
func (v *View) HourlyBurnRate() float64 { return v.e.fleet.HourlyBurnRate() }

// TenantCount returns the number of tenants (0 for single-tenant runs).
func (v *View) TenantCount() int { return len(v.e.cfg.Tenants) }

// TenantInfo returns tenant i's descriptor (name, ranges, floor, priority).
func (v *View) TenantInfo(i int) Tenant { return v.e.cfg.Tenants[i] }

// Tenant returns a view scoped to tenant i: PE and choice indices become the
// tenant's local numbering, Graph/Selection/Routing/Omega/rates report the
// tenant's own dataflow, and fleet-level methods stay global.
func (v *View) Tenant(i int) *View { return &View{e: v.e, ten: i + 1} }

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
