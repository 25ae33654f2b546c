package sim

import (
	"slices"

	"dynamicdf/internal/dataflow"
)

// This file is the flow arena: the engine's per-(PE, VM) state laid out as
// struct-of-arrays slices instead of per-PE maps. Every slice of a peState
// is indexed by a dense slot; slot 0 is always the virtual unassigned queue
// (VM id -1), and each other slot is a VM the PE holds cores on or buffers
// messages at, ascending by id. Slots change only on the control path: a
// core assignment or a restored cell inserts one, and a slot is dropped as
// soon as it holds neither cores nor messages — when the PE's last core on
// the VM is unassigned (its queue migrates first), when the VM crashes, or
// when a release migrates messages that a restore left on a VM the PE has
// no cores on. A row is therefore at most slot 0 plus the PE's live
// placements and the VMs still holding its messages, however many VMs the
// run has acquired, and the steady-state step pipeline iterates and mutates
// flow state without a single map operation or heap allocation.
//
// Two invariants keep the arena byte-compatible with the map engine:
//
//   - Entry existence is tracked only where a fold reads it: hasArr mirrors
//     the per-interval arrivals-map entry set. cores and queue need no flag,
//     since a checkpoint writes a cell exactly where one is > 0.
//   - Every float accumulation the map engine performed over sorted keys now
//     runs over slots in ascending-VM order, which is the same sequence of
//     additions, so results are bit-identical. An empty slot could only
//     have added an exact +0.0 and never hosts, so dropping it moves no
//     term of any fold.
type peState struct {
	vms   []int // slot -> VM id, ascending; vms[0] == -1
	cores []int // assigned cores (0 = no entry)

	queue []float64 // buffered messages

	// Per-interval scratch, valid only inside one step.
	arr    []float64 // arriving msg/s this interval
	hasArr []bool    // arrivals-map entry existence
	capa   []float64 // instantaneous capacity (msg/s)
	host   []bool    // cores > 0 and the VM is active (the perVM key set)
	rshare []float64 // rated share (>0 exactly on host slots)

	// Output split, read by successors' gather; the topological order
	// guarantees this PE's flow already ran.
	oshare   []float64
	srcEmpty bool
}

// rowSlots is how many slots a new arena row holds before an array grows:
// the unassigned slot and the first VMs the PE is placed on.
const rowSlots = 4

// newPEState returns an arena row holding only the virtual unassigned slot.
// Its nine slot arrays are carved from three blocks, one per element type, so
// a PE's first placements allocate nothing, and an array that grows past
// rowSlots reallocates alone.
func newPEState() peState {
	ints := make([]int, 2*rowSlots)
	floats := make([]float64, 5*rowSlots)
	bools := make([]bool, 2*rowSlots)
	p := peState{
		vms:    carve(ints, 0),
		cores:  carve(ints, 1),
		queue:  carve(floats, 0),
		arr:    carve(floats, 1),
		capa:   carve(floats, 2),
		rshare: carve(floats, 3),
		oshare: carve(floats, 4),
		hasArr: carve(bools, 0),
		host:   carve(bools, 1),
	}
	p.vms[0] = -1
	return p
}

// carve returns block's k-th rowSlots-long array, holding one zero slot and
// capped at its own end, so that appending to it never writes into the
// next array.
func carve[T any](block []T, k int) []T {
	return block[k*rowSlots : k*rowSlots+1 : (k+1)*rowSlots]
}

// slotOf returns the VM's slot, or -1 if the PE never touched it.
func (p *peState) slotOf(vmID int) int {
	lo, hi := 0, len(p.vms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.vms[mid] < vmID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.vms) && p.vms[lo] == vmID {
		return lo
	}
	return -1
}

// ensureSlot returns the VM's slot, inserting one (keeping ids ascending)
// if needed. Control-path only.
func (p *peState) ensureSlot(vmID int) int {
	lo, hi := 0, len(p.vms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.vms[mid] < vmID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(p.vms) && p.vms[lo] == vmID {
		return lo
	}
	p.vms = insertAt(p.vms, lo, vmID)
	p.cores = insertAt(p.cores, lo, 0)
	p.queue = insertAt(p.queue, lo, 0)
	p.arr = insertAt(p.arr, lo, 0)
	p.hasArr = insertAt(p.hasArr, lo, false)
	p.capa = insertAt(p.capa, lo, 0)
	p.host = insertAt(p.host, lo, false)
	p.rshare = insertAt(p.rshare, lo, 0)
	p.oshare = insertAt(p.oshare, lo, 0)
	return lo
}

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// dropSlot removes slot s >= 1, a VM the PE no longer holds cores or
// messages on, keeping the ids ascending. Every array keeps its capacity and
// shifts only within its own length, so no array writes into its
// neighbour's block, and a later ensureSlot reuses the room without
// allocating. Control-path only.
func (p *peState) dropSlot(s int) {
	p.vms = slices.Delete(p.vms, s, s+1)
	p.cores = slices.Delete(p.cores, s, s+1)
	p.queue = slices.Delete(p.queue, s, s+1)
	p.arr = slices.Delete(p.arr, s, s+1)
	p.hasArr = slices.Delete(p.hasArr, s, s+1)
	p.capa = slices.Delete(p.capa, s, s+1)
	p.host = slices.Delete(p.host, s, s+1)
	p.rshare = slices.Delete(p.rshare, s, s+1)
	p.oshare = slices.Delete(p.oshare, s, s+1)
}

// coresOf returns the cores assigned to the PE on a VM (0 when none).
func (p *peState) coresOf(vmID int) int {
	if s := p.slotOf(vmID); s >= 0 {
		return p.cores[s]
	}
	return 0
}

// totalQueue sums the PE's buffered messages across all slots (ascending,
// like the map engine's sorted-key fold).
func (p *peState) totalQueue() float64 {
	tot := 0.0
	for s := range p.queue {
		tot += p.queue[s]
	}
	return tot
}

// computeCapacity fills host and capa for the interval — host marks the
// perVM-capacity key set (cores assigned and VM active), capa the msg/s each
// such slot can process — and returns the total, accumulating in slot order
// exactly like peCapacity's sorted-key fold did.
func (p *peState) computeCapacity(e *Engine, sec int64, alt dataflow.Alternate) float64 {
	total := 0.0
	for s := 0; s < len(p.vms); s++ {
		p.host[s] = false
		p.capa[s] = 0
		n := p.cores[s]
		if n == 0 {
			continue
		}
		vm, err := e.fleet.Get(p.vms[s])
		if err != nil || !vm.Active() {
			continue
		}
		speed := float64(n) * vm.Class.CoreSpeed * e.coeff(p.vms[s], sec)
		c := speed / alt.Cost
		p.host[s] = true
		p.capa[s] = c
		total += c
	}
	return total
}

// computeRatedShares fills rshare with each hosting VM's share of the PE's
// rated capacity and returns the unnormalized total. The load balancer
// splits messages by rated shares — it has no visibility into instantaneous
// coefficients — so a degraded VM becomes a straggler whose queue grows, one
// of the ways infrastructure variability hurts QoS (§1). rshare > 0 exactly
// on hosting slots (a hosting VM always has rated capacity > 0).
func (p *peState) computeRatedShares(e *Engine) float64 {
	total := 0.0
	for s := 0; s < len(p.vms); s++ {
		p.rshare[s] = 0
		n := p.cores[s]
		if n == 0 {
			continue
		}
		vm, err := e.fleet.Get(p.vms[s])
		if err != nil || !vm.Active() {
			continue
		}
		r := float64(n) * vm.Class.CoreSpeed
		p.rshare[s] = r
		total += r
	}
	if total > 0 {
		for s := 0; s < len(p.vms); s++ {
			if p.rshare[s] != 0 {
				p.rshare[s] /= total
			}
		}
	}
	return total
}

// migrateQueue moves any buffered messages for pe at fromVM onto the PE's
// other hosting VMs (proportional to capacity), recording the bytes
// transferred (§5: network cost paid for the transfer).
func (e *Engine) migrateQueue(pe, fromVM int) {
	p := &e.pes[pe]
	s := p.slotOf(fromVM)
	if s < 0 {
		return
	}
	q := p.queue[s]
	p.queue[s] = 0
	if q <= 0 {
		return
	}
	alt := e.sel.Alt(e.cfg.Graph, pe)
	p.computeCapacity(e, e.clock, alt)
	total := 0.0
	for t := 0; t < len(p.vms); t++ {
		if p.host[t] && p.vms[t] != fromVM {
			total += p.capa[t]
		}
	}
	if total <= 0 {
		// Nowhere to go: hold at the unassigned queue.
		p.queue[0] += q
	} else {
		for t := 0; t < len(p.vms); t++ {
			if p.host[t] && p.vms[t] != fromVM {
				p.queue[t] += q * p.capa[t] / total
			}
		}
	}
	e.migratedBytes += q * float64(e.cfg.Graph.MsgBytes(pe))
}

// rebuildFlowCaches recomputes the routing-dependent flow topology: each
// PE's active successors and — the gather side of the same edges — each PE's
// active predecessors in topological order, which is exactly the order the
// push-based engine delivered in. Runs at construction, on SelectRoute, and
// on restore; also invalidates the cached application value.
func (e *Engine) rebuildFlowCaches() {
	g := e.cfg.Graph
	n := g.N()
	if e.activeSucc == nil {
		e.activeSucc = make([][]int, n)
	}
	if e.flowPreds == nil {
		e.flowPreds = make([][]int, n)
	}
	for pe := 0; pe < n; pe++ {
		e.flowPreds[pe] = e.flowPreds[pe][:0]
	}
	for _, pe := range e.topoOrder {
		e.activeSucc[pe] = g.ActiveSuccessors(pe, e.routing)
		for _, succ := range e.activeSucc[pe] {
			e.flowPreds[succ] = append(e.flowPreds[succ], pe)
		}
	}
	e.gammaDirty = true
}
