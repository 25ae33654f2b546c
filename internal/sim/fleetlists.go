package sim

import (
	"cmp"
	"slices"

	"dynamicdf/internal/cloud"
)

// fleetLists is the scheduler's picture of the fleet: a VMInfo for every
// active VM and a PendingVM for every VM still provisioning, each list in id
// order. The engine owns one and every View shares it, so the policies of
// all tenants read one list instead of each building its own.
//
// The lists are built from the fleet's live index on the first read of an
// interval. A VMInfo carries the monitored coefficient and the time to the
// next hour boundary, which move only when the engine steps, so until then
// the engine's Actions keep the lists current in place: an assignment or
// unassignment patches the VM's entry, an acquisition appends the new VM
// (its id is the largest yet), and a release removes the entry. Each step
// drops the lists: it activates booted VMs, crashes and preempts others,
// feeds the monitors and advances the clock.
type fleetLists struct {
	active  []VMInfo
	pending []PendingVM
}

// lists returns the engine's fleet lists, building them if this interval
// has not yet.
func (e *Engine) lists() *fleetLists {
	l := &e.fleetLists
	if e.listsBuilt {
		return l
	}
	l.active, l.pending = l.active[:0], l.pending[:0]
	for _, vm := range e.fleet.Live() {
		if vm.Pending() {
			l.pending = append(l.pending, pendingInfo(vm))
		} else {
			l.active = append(l.active, e.vmInfo(vm))
		}
	}
	e.listsBuilt = true
	return l
}

// listAcquired adds a VM just acquired, whose id is the largest yet, to the
// built lists.
func (e *Engine) listAcquired(vm *cloud.VM) {
	if !e.listsBuilt {
		return
	}
	l := &e.fleetLists
	if vm.Pending() {
		l.pending = append(l.pending, pendingInfo(vm))
	} else {
		l.active = append(l.active, e.vmInfo(vm))
	}
}

// listCoresChanged patches the built lists' entry of VM id, whose core use
// just changed.
func (e *Engine) listCoresChanged(id int) {
	if !e.listsBuilt {
		return
	}
	vm, err := e.fleet.Get(id)
	if err != nil {
		return // the caller has just changed its cores, so this cannot happen
	}
	l := &e.fleetLists
	if i, ok := slices.BinarySearchFunc(l.active, id, activeByID); ok {
		l.active[i].UsedCores, l.active[i].FreeCores = vm.UsedCores, vm.FreeCores()
	} else if i, ok := slices.BinarySearchFunc(l.pending, id, pendingByID); ok {
		l.pending[i].UsedCores = vm.UsedCores
	} else {
		e.listsBuilt = false // not where id order puts it: rebuild on the next read
	}
}

// listReleased removes a VM just released from the built lists.
func (e *Engine) listReleased(id int) {
	if !e.listsBuilt {
		return
	}
	l := &e.fleetLists
	if i, ok := slices.BinarySearchFunc(l.active, id, activeByID); ok {
		l.active = slices.Delete(l.active, i, i+1)
	} else if i, ok := slices.BinarySearchFunc(l.pending, id, pendingByID); ok {
		l.pending = slices.Delete(l.pending, i, i+1)
	} else {
		e.listsBuilt = false
	}
}

func activeByID(x VMInfo, id int) int     { return cmp.Compare(x.ID, id) }
func pendingByID(x PendingVM, id int) int { return cmp.Compare(x.ID, id) }

// vmInfo is the scheduler's picture of one active VM.
func (e *Engine) vmInfo(vm *cloud.VM) VMInfo {
	return VMInfo{
		ID:                 vm.ID,
		Class:              vm.Class,
		UsedCores:          vm.UsedCores,
		FreeCores:          vm.FreeCores(),
		CPUCoeff:           e.vmMon.CPUCoeff(vm.ID, 1.0),
		SecsToHourBoundary: vm.SecondsToHourBoundary(e.clock),
		StartSec:           vm.StartSec,
	}
}

// pendingInfo is the scheduler's picture of one VM still provisioning.
func pendingInfo(vm *cloud.VM) PendingVM {
	return PendingVM{ID: vm.ID, Class: vm.Class, UsedCores: vm.UsedCores,
		ReadySec: vm.ReadySec, StartSec: vm.StartSec}
}
