package sim

import (
	"dynamicdf/internal/dataflow"
)

// This file is the flow arena: the engine's per-(PE, VM) state laid out as
// struct-of-arrays slices instead of per-PE maps. Every slice of a peState
// is indexed by a dense slot; slot 0 is always the virtual unassigned queue
// (VM id -1), and the remaining slots are the VMs the PE has ever touched,
// ascending by id. Slots are created on the control path (core assignment,
// queue writes, checkpoint restore) and never removed — a VM that leaves
// keeps a zombie slot with zeroed state — so the steady-state step pipeline
// iterates and mutates flow state without a single map operation or heap
// allocation.
//
// Two invariants keep the arena byte-compatible with the map engine:
//
//   - Entry existence is tracked explicitly. The old maps distinguished "no
//     entry" from "entry with value 0" (checkpoint encoding and the drain
//     phase both depend on it): hasQ mirrors queue-map entry existence and
//     hasArr mirrors the per-interval arrivals-map entry set. cores needs no
//     flag — the map engine deleted core entries at zero.
//   - Every float accumulation the map engine performed over sorted keys now
//     runs over slots in ascending-VM order, which is the same sequence of
//     additions, so results are bit-identical.
type peState struct {
	vms   []int // slot -> VM id, ascending; vms[0] == -1
	cores []int // assigned cores (0 = no entry)

	queue []float64 // buffered messages
	hasQ  []bool    // queue-map entry existence

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

// newPEState returns an arena row holding only the virtual unassigned slot.
func newPEState() peState {
	return peState{
		vms:    []int{-1},
		cores:  []int{0},
		queue:  []float64{0},
		hasQ:   []bool{false},
		arr:    []float64{0},
		hasArr: []bool{false},
		capa:   []float64{0},
		host:   []bool{false},
		rshare: []float64{0},
		oshare: []float64{0},
	}
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
	p.hasQ = insertAt(p.hasQ, lo, false)
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

// coresOf returns the cores assigned to the PE on a VM (0 when none).
func (p *peState) coresOf(vmID int) int {
	if s := p.slotOf(vmID); s >= 0 {
		return p.cores[s]
	}
	return 0
}

// totalQueue sums the PE's buffered messages across all slots (ascending,
// like the map engine's sorted-key fold; zombie slots add exact zeros).
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
	p.hasQ[s] = false
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
		p.hasQ[0] = true
	} else {
		for t := 0; t < len(p.vms); t++ {
			if p.host[t] && p.vms[t] != fromVM {
				p.queue[t] += q * p.capa[t] / total
				p.hasQ[t] = true
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
