package invariant

import "fmt"

// Law names, one per conservation-style family the checker asserts. The
// formulas and rationale are catalogued in DESIGN.md ("Invariant catalog").
const (
	LawConservation = "message-conservation"
	LawQueues       = "non-negative-queues"
	LawBilling      = "billing-monotonicity"
	LawFleet        = "fleet-accounting"
	LawBounds       = "omega-gamma-bounds"
	LawAudit        = "audit-consistency"
)

// defaultLaws is the shared immutable law set.
var defaultLaws = []Law{
	{LawConservation, checkConservation},
	{LawQueues, checkQueues},
	{LawBilling, checkBilling},
	{LawFleet, checkFleet},
	{LawBounds, checkBounds},
	{LawAudit, checkAudit},
}

// DefaultLaws returns a fresh copy of the default law set, for callers that
// want to extend or subset it.
func DefaultLaws() []Law { return append([]Law(nil), defaultLaws...) }

// checkConservation asserts per-PE queue balance: everything that arrived
// at a PE this interval was either processed or is still queued —
// QueueBefore + In*dt = Processed*dt + QueueAfter, within a relative
// epsilon. Link-capacity drops happen in transit between PEs (they reduce
// the downstream PE's In), so the balance holds exactly at every PE up to
// the engine's sub-nanomessage queue clamp.
func checkConservation(st *State, eps float64) string {
	dt := float64(st.IntervalSec)
	for pe := range st.In {
		in := st.QueueBefore[pe] + st.In[pe]*dt
		out := st.Processed[pe]*dt + st.QueueAfter[pe]
		scale := 1 + in
		if diff := in - out; diff > eps*scale || diff < -eps*scale {
			return fmt.Sprintf("PE %d: arrivals %.6f + queued %.6f != processed %.6f + queued' %.6f (residual %.3g)",
				pe, st.In[pe]*dt, st.QueueBefore[pe], st.Processed[pe]*dt, st.QueueAfter[pe], diff)
		}
	}
	return ""
}

// checkQueues asserts no buffer ever goes negative: every per-VM queue
// cell, every per-PE total, the global backlog, and the cumulative
// lost/migrated tallies.
func checkQueues(st *State, eps float64) string {
	if st.MinQueue < -eps {
		return fmt.Sprintf("a per-VM queue cell is negative: %v", st.MinQueue)
	}
	for pe, q := range st.QueueAfter {
		if q < -eps {
			return fmt.Sprintf("PE %d queue is negative: %v", pe, q)
		}
	}
	if st.Backlog < -eps {
		return fmt.Sprintf("total backlog is negative: %v", st.Backlog)
	}
	if st.LostMessages < -eps {
		return fmt.Sprintf("lost-message tally is negative: %v", st.LostMessages)
	}
	if st.MigratedBytes < -eps {
		return fmt.Sprintf("migrated-bytes tally is negative: %v", st.MigratedBytes)
	}
	return ""
}

// checkBilling asserts μ never decreases, equals the sum of per-VM accrued
// cost, and that pending VMs — still provisioning, or cancelled before they
// ever booted — are never billed (§4's hour-boundary model bills only from
// the end of provisioning).
func checkBilling(st *State, eps float64) string {
	if st.CostUSD < -eps {
		return fmt.Sprintf("cumulative cost is negative: %v", st.CostUSD)
	}
	if st.CostUSD < st.PrevCostUSD-eps*(1+st.PrevCostUSD) {
		return fmt.Sprintf("cost decreased: %v -> %v", st.PrevCostUSD, st.CostUSD)
	}
	sum := 0.0
	for _, vm := range st.VMs {
		if vm.Pending && vm.BilledUSD != 0 {
			return fmt.Sprintf("pending VM %d billed $%v", vm.ID, vm.BilledUSD)
		}
		if vm.BilledUSD < 0 {
			return fmt.Sprintf("VM %d billed negative $%v", vm.ID, vm.BilledUSD)
		}
		sum += vm.BilledUSD
	}
	if diff := st.CostUSD - sum; diff > eps*(1+sum) || diff < -eps*(1+sum) {
		return fmt.Sprintf("cost %v != sum of per-VM bills %v", st.CostUSD, sum)
	}
	return ""
}

// checkFleet asserts core accounting: no VM oversubscribed beyond its rated
// cores, every placement references a live (non-stopped) VM with a positive
// core count, and each VM's UsedCores equals the sum of its placements.
func checkFleet(st *State, _ float64) string {
	if st.fleetIndex == nil {
		st.fleetIndex = make(map[int]int, len(st.VMs))
	}
	byID := st.fleetIndex
	clear(byID)
	for i, vm := range st.VMs {
		byID[vm.ID] = i
		if vm.UsedCores < 0 {
			return fmt.Sprintf("VM %d has negative used cores %d", vm.ID, vm.UsedCores)
		}
		if vm.UsedCores > vm.RatedCores {
			return fmt.Sprintf("VM %d oversubscribed: %d used > %d rated cores", vm.ID, vm.UsedCores, vm.RatedCores)
		}
	}
	if cap(st.fleetCores) < len(st.VMs) {
		st.fleetCores = make([]int, len(st.VMs), 2*len(st.VMs))
	}
	assigned := st.fleetCores[:len(st.VMs)]
	clear(assigned)
	for _, p := range st.Placements {
		if p.Cores <= 0 {
			return fmt.Sprintf("PE %d holds a non-positive placement of %d cores on VM %d", p.PE, p.Cores, p.VM)
		}
		i, ok := byID[p.VM]
		if !ok {
			return fmt.Sprintf("PE %d placed on unknown VM %d", p.PE, p.VM)
		}
		if st.VMs[i].Stopped {
			return fmt.Sprintf("PE %d placed on stopped VM %d", p.PE, p.VM)
		}
		assigned[i] += p.Cores
	}
	for i, vm := range st.VMs {
		if assigned[i] != vm.UsedCores {
			return fmt.Sprintf("VM %d: %d cores placed vs %d used", vm.ID, assigned[i], vm.UsedCores)
		}
	}
	return ""
}

// checkBounds asserts the paper's definitional ranges: Ω ∈ [0,1] (Def. 4 is
// a clamped ratio) and Γ within the value range of the graph's alternates
// (RoutedValue is a mean of per-PE alternate values).
func checkBounds(st *State, eps float64) string {
	if st.Omega < -eps || st.Omega > 1+eps {
		return fmt.Sprintf("omega %v outside [0,1]", st.Omega)
	}
	if st.GammaMax >= st.GammaMin {
		if st.Gamma < st.GammaMin-eps || st.Gamma > st.GammaMax+eps {
			return fmt.Sprintf("gamma %v outside alternate value range [%v, %v]",
				st.Gamma, st.GammaMin, st.GammaMax)
		}
	}
	for i, o := range st.TenantOmega {
		if o < -eps || o > 1+eps {
			return fmt.Sprintf("tenant %d omega %v outside [0,1]", i, o)
		}
	}
	return ""
}

// checkAudit asserts the crash bookkeeping and the audit event stream stay
// in step: the counters are incremented where VMs die, the events are
// tallied on the audit path, and the two views must agree every interval.
func checkAudit(st *State, _ float64) string {
	if st.Crashes < 0 || st.Preemptions < 0 {
		return fmt.Sprintf("negative crash counters: crashes=%d preemptions=%d", st.Crashes, st.Preemptions)
	}
	if st.Preemptions > st.Crashes {
		return fmt.Sprintf("%d preemptions exceed %d total crashes", st.Preemptions, st.Crashes)
	}
	if st.CrashEvents != st.Crashes-st.Preemptions {
		return fmt.Sprintf("%d crash events recorded for %d non-preemption crashes",
			st.CrashEvents, st.Crashes-st.Preemptions)
	}
	if st.PreemptEvents != st.Preemptions {
		return fmt.Sprintf("%d preempt events recorded for %d preemptions", st.PreemptEvents, st.Preemptions)
	}
	return ""
}
