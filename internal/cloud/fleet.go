package cloud

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// SecondsPerHour is the billing quantum: VM usage is rounded up to the next
// hour boundary (§4: "usage of a VM instance is rounded up to the nearest
// hourly boundary and the user is charged for the entire hour even if it is
// shut down before the hour ends").
const SecondsPerHour = 3600

// VM is one acquired instance r_i = (C, t_start, t_off). StopSec < 0 marks
// an active instance (the paper's t_off = infinity).
type VM struct {
	ID       int
	Class    *Class
	StartSec int64
	StopSec  int64 // -1 while active

	// ReadySec is when the VM finished provisioning and became schedulable
	// (and billable). Equals StartSec unless acquired with a boot delay.
	ReadySec int64

	// UsedCores tracks how many of the VM's cores are currently assigned
	// to PE instances. The fleet enforces UsedCores <= Class.Cores.
	UsedCores int

	// TraceID seeds the performance-trace window assigned to this VM by the
	// simulator; the cloud package only stores it.
	TraceID int64

	// pending marks a VM still provisioning: acquired, but not yet
	// schedulable or billable. A VM released (or crashed) while pending
	// stays pending forever and is never billed — real clouds do not charge
	// for capacity that never booted.
	pending bool
}

// Active reports whether the VM is running and has finished provisioning.
func (v *VM) Active() bool { return v.StopSec < 0 && !v.pending }

// Pending reports whether the VM is still provisioning (or was cancelled
// before it ever finished provisioning).
func (v *VM) Pending() bool { return v.pending }

// Stopped reports whether the VM has been released, cancelled, or crashed.
func (v *VM) Stopped() bool { return v.StopSec >= 0 }

// FreeCores returns the number of unassigned cores.
func (v *VM) FreeCores() int { return v.Class.Cores - v.UsedCores }

// billingStartSec is the instant billing is anchored at: ReadySec for a VM
// acquired with a boot delay, StartSec otherwise (including VM literals that
// never set ReadySec).
func (v *VM) billingStartSec() int64 {
	if v.ReadySec > v.StartSec {
		return v.ReadySec
	}
	return v.StartSec
}

// BilledHours returns the number of whole hours billed for this VM up to
// time now (at least 1 once booted). Billing starts when provisioning
// completes: a VM still provisioning — or cancelled before it ever became
// ready — costs nothing.
func (v *VM) BilledHours(now int64) int64 {
	if v.pending {
		return 0
	}
	anchor := v.billingStartSec()
	end := now
	if v.Stopped() && v.StopSec < end {
		end = v.StopSec
	}
	if end < anchor {
		end = anchor
	}
	dur := end - anchor
	hours := dur / SecondsPerHour
	if dur%SecondsPerHour != 0 || dur == 0 {
		hours++
	}
	return hours
}

// AccruedCost returns the dollars billed for this VM up to time now.
func (v *VM) AccruedCost(now int64) float64 {
	return float64(v.BilledHours(now)) * v.Class.PricePerHour
}

// SecondsToHourBoundary returns how many seconds remain until the next paid
// hour boundary at time now. Releasing a VM just before its boundary wastes
// the least money; the runtime heuristic releases such VMs first. Billing —
// and hence the boundary clock — is anchored at the end of provisioning.
func (v *VM) SecondsToHourBoundary(now int64) int64 {
	elapsed := now - v.billingStartSec()
	if elapsed < 0 {
		return SecondsPerHour
	}
	rem := elapsed % SecondsPerHour
	if rem == 0 && elapsed > 0 {
		return 0
	}
	return SecondsPerHour - rem
}

// Fleet is the set R(t) of all VM instances ever acquired, with billing and
// core-allocation bookkeeping. Besides the history it keeps an index of the
// VMs still alive, so that questions about the running fleet cost O(live),
// or O(1) for the counts, however many VMs were released before.
type Fleet struct {
	menu   *Menu
	vms    []*VM
	nextID int

	// live holds every VM not yet stopped — active or still provisioning —
	// in id order, once a VM has stopped; until then it is nil, since every
	// VM ever acquired is live. active and pending count the live VMs by
	// kind.
	live            []*VM
	active, pending int
}

// NewFleet returns an empty fleet drawing from the menu.
func NewFleet(menu *Menu) *Fleet {
	return &Fleet{menu: menu}
}

// Menu returns the class menu this fleet acquires from.
func (f *Fleet) Menu() *Menu { return f.menu }

// Acquire starts a new VM of the class at time now and returns it. The VM
// is ready — schedulable and billable — immediately.
func (f *Fleet) Acquire(class *Class, now int64) (*VM, error) {
	return f.AcquireDelayed(class, now, now)
}

// AcquireDelayed starts a new VM whose provisioning completes at readySec.
// Until then the VM is pending: cores may be reserved on it, but it is not
// schedulable and not billed. Call MakeReady each simulated step to flip
// pending VMs whose boot time has arrived.
func (f *Fleet) AcquireDelayed(class *Class, now, readySec int64) (*VM, error) {
	if class == nil {
		return nil, errors.New("cloud: acquire with nil class")
	}
	if _, ok := f.menu.ByName(class.Name); !ok {
		return nil, fmt.Errorf("cloud: class %q not on menu", class.Name)
	}
	if readySec < now {
		return nil, fmt.Errorf("cloud: VM ready time %d precedes acquisition %d", readySec, now)
	}
	v := &VM{ID: f.nextID, Class: class, StartSec: now, ReadySec: readySec, StopSec: -1,
		pending: readySec > now}
	f.nextID++
	f.vms = append(f.vms, v)
	if f.live != nil {
		f.live = append(f.live, v) // the new id is the largest yet
	}
	f.count(v, 1)
	return v, nil
}

// count adds d to the live count of v's kind.
func (f *Fleet) count(v *VM, d int) {
	if v.pending {
		f.pending += d
	} else {
		f.active += d
	}
}

// MakeReady completes provisioning for every pending VM whose ReadySec has
// arrived and returns them in id order. Billing for each starts at its
// ReadySec.
func (f *Fleet) MakeReady(now int64) []*VM {
	var out []*VM
	for _, v := range f.Live() {
		if v.pending && v.ReadySec <= now {
			v.pending = false
			f.pending--
			f.active++
			out = append(out, v)
		}
	}
	return out
}

// Release stops the VM with the given id at time now. Cores must have been
// unassigned first; releasing a VM with assigned cores is an error so that
// message-buffer migration is never skipped silently. Releasing a pending
// VM cancels the provisioning request at no charge.
func (f *Fleet) Release(id int, now int64) error {
	v, err := f.Get(id)
	if err != nil {
		return err
	}
	if v.Stopped() {
		return fmt.Errorf("cloud: VM %d already released", id)
	}
	if v.UsedCores > 0 {
		return fmt.Errorf("cloud: VM %d still has %d cores assigned", id, v.UsedCores)
	}
	if now < v.StartSec {
		return fmt.Errorf("cloud: VM %d release at %d precedes start %d", id, now, v.StartSec)
	}
	v.StopSec = now
	if f.live == nil {
		f.live = slices.Clone(f.vms) // the first stop: until now every VM was live
	}
	if i, ok := slices.BinarySearchFunc(f.live, id, func(x *VM, id int) int { return cmp.Compare(x.ID, id) }); ok {
		f.live = slices.Delete(f.live, i, i+1)
	}
	f.count(v, -1)
	return nil
}

// Get returns the VM with the given id.
func (f *Fleet) Get(id int) (*VM, error) {
	if id < 0 || id >= len(f.vms) {
		return nil, fmt.Errorf("cloud: no VM %d", id)
	}
	return f.vms[id], nil
}

// AssignCores reserves n cores of VM id. It fails rather than oversubscribe:
// each PE instance runs on a dedicated core (§5). Cores may be reserved on a
// pending VM — they start processing when provisioning completes.
func (f *Fleet) AssignCores(id, n int, _ int64) error {
	v, err := f.Get(id)
	if err != nil {
		return err
	}
	if v.Stopped() {
		return fmt.Errorf("cloud: VM %d is released", id)
	}
	if n <= 0 {
		return fmt.Errorf("cloud: assign %d cores", n)
	}
	if v.UsedCores+n > v.Class.Cores {
		return fmt.Errorf("cloud: VM %d (%s): %d used + %d requested > %d cores",
			id, v.Class.Name, v.UsedCores, n, v.Class.Cores)
	}
	v.UsedCores += n
	return nil
}

// UnassignCores returns n cores of VM id to the free pool.
func (f *Fleet) UnassignCores(id, n int) error {
	v, err := f.Get(id)
	if err != nil {
		return err
	}
	if n <= 0 || n > v.UsedCores {
		return fmt.Errorf("cloud: VM %d: unassign %d of %d used cores", id, n, v.UsedCores)
	}
	v.UsedCores -= n
	return nil
}

// Active returns the currently running VMs, in id order.
func (f *Fleet) Active() []*VM { return f.ActiveInto(nil) }

// ActiveInto appends the currently running VMs to buf, in id order, and
// returns it — Active for callers reusing a buffer across calls.
func (f *Fleet) ActiveInto(buf []*VM) []*VM {
	for _, v := range f.Live() {
		if !v.pending {
			buf = append(buf, v)
		}
	}
	return buf
}

// All returns every VM ever acquired, in id order. The slice is shared.
func (f *Fleet) All() []*VM { return f.vms }

// Live returns the VMs not yet stopped — running or still provisioning — in
// id order. The slice is shared and read-only: it is valid until the next
// acquisition or release.
func (f *Fleet) Live() []*VM {
	if f.live == nil {
		return f.vms
	}
	return f.live
}

// ActiveCount returns the number of running VMs.
func (f *Fleet) ActiveCount() int { return f.active }

// Pending returns the VMs still provisioning, in id order.
func (f *Fleet) Pending() []*VM {
	var out []*VM
	for _, v := range f.Live() {
		if v.pending {
			out = append(out, v)
		}
	}
	return out
}

// PendingCount returns the number of VMs still provisioning.
func (f *Fleet) PendingCount() int { return f.pending }

// TotalCost returns mu(t): dollars billed across all instances, running or
// stopped, up to time now.
func (f *Fleet) TotalCost(now int64) float64 {
	total := 0.0
	for _, v := range f.vms {
		total += v.AccruedCost(now)
	}
	return total
}

// HourlyBurnRate returns the dollars per hour the currently active VMs cost.
func (f *Fleet) HourlyBurnRate() float64 {
	total := 0.0
	for _, v := range f.Live() {
		if !v.pending {
			total += v.Class.PricePerHour
		}
	}
	return total
}
