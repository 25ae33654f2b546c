package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/sim"
)

// PlanVM is a virtual VM used while planning the initial deployment. The
// planner packs cores onto virtual VMs, repacks freely (nothing is billed
// yet), and only then materializes the plan through sim.Actions. A VM's
// cores are a list of per-PE chunks in ascending PE order plus their total;
// only Plan's methods change them.
type PlanVM struct {
	Class  *cloud.Class
	chunks []planChunk
	used   int
}

// planChunk is cores of one VM assigned to one PE.
type planChunk struct{ pe, cores int }

// UsedCores sums the assigned cores.
func (pv *PlanVM) UsedCores() int { return pv.used }

// FreeCores returns the unassigned cores.
func (pv *PlanVM) FreeCores() int { return pv.Class.Cores - pv.used }

// ECUFor returns the rated capacity (standard-core-sec/s) this VM provides
// to the PE.
func (pv *PlanVM) ECUFor(pe int) float64 {
	return float64(pv.coresOf(pe)) * pv.Class.CoreSpeed
}

// find returns the index of pe's chunk, or where it would be inserted.
func (pv *PlanVM) find(pe int) int {
	i := 0
	for i < len(pv.chunks) && pv.chunks[i].pe < pe {
		i++
	}
	return i
}

func (pv *PlanVM) coresOf(pe int) int {
	if i := pv.find(pe); i < len(pv.chunks) && pv.chunks[i].pe == pe {
		return pv.chunks[i].cores
	}
	return 0
}

// add gives pe n more cores and reports whether pe is new to the VM.
func (pv *PlanVM) add(pe, n int) bool {
	pv.used += n
	i := pv.find(pe)
	if i < len(pv.chunks) && pv.chunks[i].pe == pe {
		pv.chunks[i].cores += n
		return false
	}
	pv.chunks = append(pv.chunks, planChunk{})
	copy(pv.chunks[i+1:], pv.chunks[i:])
	pv.chunks[i] = planChunk{pe: pe, cores: n}
	return true
}

// remove takes all of pe's cores off the VM.
func (pv *PlanVM) remove(pe int) {
	if i := pv.find(pe); i < len(pv.chunks) && pv.chunks[i].pe == pe {
		pv.used -= pv.chunks[i].cores
		pv.chunks = append(pv.chunks[:i], pv.chunks[i+1:]...)
	}
}

// Plan is a full virtual deployment.
type Plan struct {
	menu *cloud.Menu
	VMs  []*PlanVM
	// lastVM[pe] is where pe's most recent core went — the paper's
	// RepackPE moves a PE's "last instance" — or nil; it always hosts pe.
	lastVM []*PlanVM
	// open is where AddCore's scan for an open largest-class VM resumes:
	// no VM before it is of the largest class with a free core. Only
	// AddCore, which fills cores, moves it forward; RepackPE,
	// IterativeRepack and Downgrade, which free cores, reorder VMs or
	// change classes, reset it through dropEmpty.
	open int
}

// NewPlan returns an empty plan over the menu.
func NewPlan(menu *cloud.Menu) *Plan {
	return &Plan{menu: menu}
}

// openVM appends an empty VM of the class.
func (p *Plan) openVM(class *cloud.Class) *PlanVM {
	vm := &PlanVM{Class: class}
	p.VMs = append(p.VMs, vm)
	return vm
}

func (p *Plan) last(pe int) *PlanVM {
	if pe < len(p.lastVM) {
		return p.lastVM[pe]
	}
	return nil
}

func (p *Plan) setLast(pe int, vm *PlanVM) {
	for len(p.lastVM) <= pe {
		p.lastVM = append(p.lastVM, nil)
	}
	p.lastVM[pe] = vm
}

// HourlyCost prices the planned fleet.
func (p *Plan) HourlyCost() float64 {
	c := 0.0
	for _, vm := range p.VMs {
		c += vm.Class.PricePerHour
	}
	return c
}

// ECUs returns the planned rated capacity per PE in standard cores, summed
// over the hosting VMs in plan order. PEs outside [0, n) are ignored.
func (p *Plan) ECUs(n int) []float64 {
	out := make([]float64, n)
	for _, vm := range p.VMs {
		for _, c := range vm.chunks {
			if c.pe < n {
				out[c.pe] += float64(c.cores) * vm.Class.CoreSpeed
			}
		}
	}
	return out
}

// Capacities converts planned ECUs into msg/s per PE under the selection.
func (p *Plan) Capacities(g *dataflow.Graph, sel dataflow.Selection) []float64 {
	ecus := p.ECUs(g.N())
	caps := make([]float64, g.N())
	for i := range caps {
		caps[i] = ecus[i] / sel.Alt(g, i).Cost
	}
	return caps
}

// AddCore gives PE pe one more core following Alg. 1's placement rule: a
// free core on the VM that last received this PE (collocating instances of
// a PE), then any open largest-class VM with a free core (collocating
// neighbouring PEs), then a newly instantiated VM of the largest class.
func (p *Plan) AddCore(pe int) { p.addCore(pe) }

// addCore is AddCore. When the core lands on a VM that did not host pe
// before, it returns that VM's position in p.VMs, and -1 otherwise.
func (p *Plan) addCore(pe int) int {
	if vm := p.last(pe); vm != nil && vm.FreeCores() > 0 {
		vm.add(pe, 1)
		return -1
	}
	largest := p.menu.Largest()
	for ; p.open < len(p.VMs); p.open++ {
		if vm := p.VMs[p.open]; vm.Class == largest && vm.FreeCores() > 0 {
			p.setLast(pe, vm)
			if vm.add(pe, 1) {
				return p.open
			}
			return -1
		}
	}
	vm := p.openVM(largest)
	vm.add(pe, 1)
	p.setLast(pe, vm)
	return p.open
}

// capacityTracker keeps every PE's planned capacity current while cores
// are added, recounting only the PE that grew: hosts[pe] lists the
// positions of the VMs hosting pe in ascending order, and caps[pe] sums
// pe's ECU over them in that order before dividing by its cost, so it
// equals Capacities bit for bit even where core speeds have no exact
// binary form. AddCore only fills or appends VMs, so the positions hold
// until another method changes the plan.
type capacityTracker struct {
	plan  *Plan
	g     *dataflow.Graph
	sel   dataflow.Selection
	hosts [][]int
	caps  []float64
}

func (p *Plan) trackCapacities(g *dataflow.Graph, sel dataflow.Selection) *capacityTracker {
	t := &capacityTracker{plan: p, g: g, sel: sel, hosts: make([][]int, g.N()), caps: p.Capacities(g, sel)}
	for i, vm := range p.VMs {
		for _, c := range vm.chunks {
			t.hosts[c.pe] = append(t.hosts[c.pe], i)
		}
	}
	return t
}

// addCore is AddCore(pe) followed by the recount of pe's capacity.
func (t *capacityTracker) addCore(pe int) {
	if at := t.plan.addCore(pe); at >= 0 {
		k, _ := slices.BinarySearch(t.hosts[pe], at)
		t.hosts[pe] = slices.Insert(t.hosts[pe], k, at)
	}
	ecu := 0.0
	for _, i := range t.hosts[pe] {
		vm := t.plan.VMs[i]
		ecu += float64(vm.coresOf(pe)) * vm.Class.CoreSpeed
	}
	t.caps[pe] = ecu / t.sel.Alt(t.g, pe).Cost
}

// coresNeeded converts an ECU amount into cores of a class (ceiling).
func coresNeeded(ecu float64, class *cloud.Class) int {
	if ecu <= 0 {
		return 0
	}
	return int(math.Ceil(ecu/class.CoreSpeed - 1e-9))
}

// coresFor is coresNeeded with the one-core floor every placed chunk keeps.
func coresFor(ecu float64, class *cloud.Class) int {
	if n := coresNeeded(ecu, class); n > 0 {
		return n
	}
	return 1
}

// RepackPE implements the global strategy's per-PE repack (Table 1): for
// every over-provisioned PE, move its cores on its last VM to the smallest
// class large enough for the work they actually carry. demandECU gives each
// PE's required rated capacity.
func (p *Plan) RepackPE(demandECU []float64) {
	// A PE's move touches only its own chunks, so every PE's total can be
	// taken up front.
	total := p.ECUs(len(p.lastVM))
	for pe, last := range p.lastVM {
		if last == nil {
			continue
		}
		totalECU := total[pe]
		if pe >= len(demandECU) || totalECU <= demandECU[pe]+1e-9 {
			continue // not over-provisioned
		}
		otherECU := totalECU - last.ECUFor(pe)
		residual := demandECU[pe] - otherECU
		if residual <= 0 {
			// The last instance is entirely redundant beyond rounding;
			// keep a single smallest core for liveness.
			residual = 1e-9
		}
		smallest := p.menu.SmallestFitting(residual)
		if smallest == nil || smallest.PricePerHour >= last.Class.PricePerHour {
			continue
		}
		cores := coresFor(residual, smallest)
		if cores > smallest.Cores {
			continue
		}
		// Move: strip from the last VM, open a dedicated small VM.
		last.remove(pe)
		nv := p.openVM(smallest)
		nv.add(pe, cores)
		p.lastVM[pe] = nv
	}
	p.dropEmpty()
}

// IterativeRepack empties lightly used VMs by relocating their core chunks
// into free cores elsewhere (the global strategy's RepackFreeVMs). Each
// round orders the VMs by utilization and evacuates, through
// planEvacuation, the first victim whose every chunk fits into the round's
// spare positions in plan order.
func (p *Plan) IterativeRepack() {
	// free[i] is VM i's spare cores this round and spare the positions
	// with any; a victim that fails gives back what it took.
	var free, spare []int
	var moves []coreMove
	classAt := func(i int) *cloud.Class { return p.VMs[i].Class }
	for {
		sort.SliceStable(p.VMs, func(i, j int) bool {
			ui := float64(p.VMs[i].used) / float64(p.VMs[i].Class.Cores)
			uj := float64(p.VMs[j].used) / float64(p.VMs[j].Class.Cores)
			return ui < uj
		})
		free, spare = free[:0], spare[:0]
		for i, vm := range p.VMs {
			f := vm.FreeCores()
			free = append(free, f)
			if f > 0 {
				spare = append(spare, i)
			}
		}
		moved := false
		for vi, victim := range p.VMs {
			if victim.used == 0 {
				continue
			}
			var ok bool
			if moves, ok = planEvacuation(vi, victim.chunks, spare, classAt, free, moves[:0]); ok {
				p.applyEvacuation(victim, moves)
				moved = true
				break
			}
		}
		if !moved {
			break
		}
		p.dropEmpty()
	}
	p.dropEmpty()
}

// coreMove sends one victim chunk to the position dst, as cores cores of
// the class there.
type coreMove struct {
	pe, dst, cores int
}

// planEvacuation is the one bin packer behind both heuristics: Alg. 1's
// RepackFreeVMs (IterativeRepack) and Alg. 2's consolidation (consolidate).
// It plans moving every chunk of the victim at position vi, in the order
// given, onto the candidate positions cands; class gives a position's class
// and free its spare cores. A chunk of n cores at speed s needs
// coresFor(n·s, class) cores at the destination, so the PE keeps its rated
// capacity. It goes to the candidate left with the least slack, the first
// in cands on ties, and on-demand cores never go onto a spot VM. The plan
// takes its cores from free; if some chunk fits nowhere, it gives them all
// back and reports false. The caller's victim and candidate orders are the
// tie-breaks.
func planEvacuation(vi int, chunks []planChunk, cands []int, class func(int) *cloud.Class, free []int, moves []coreMove) ([]coreMove, bool) {
	victim := class(vi)
	for _, c := range chunks {
		ecu := float64(c.cores) * victim.CoreSpeed
		best, bestNeed := -1, 0
		for _, i := range cands {
			dst := class(i)
			// Spot capacity may be reclaimed, and the constraint-critical
			// on-demand base must survive reclamations.
			if i == vi || dst.Preemptible && !victim.Preemptible {
				continue
			}
			f := free[i]
			need := coresFor(ecu, dst)
			if need <= f && (best < 0 || f-need < free[best]-bestNeed) {
				best, bestNeed = i, need
			}
		}
		if best < 0 {
			for _, m := range moves {
				free[m.dst] += m.cores
			}
			return moves, false
		}
		free[best] -= bestNeed
		moves = append(moves, coreMove{pe: c.pe, dst: best, cores: bestNeed})
	}
	return moves, true
}

func (p *Plan) applyEvacuation(victim *PlanVM, moves []coreMove) {
	for _, m := range moves {
		dst := p.VMs[m.dst]
		dst.add(m.pe, m.cores)
		if p.last(m.pe) == victim {
			p.lastVM[m.pe] = dst
		}
	}
	victim.chunks, victim.used = nil, 0
}

// Downgrade replaces every planned VM's class with the cheapest class that
// still hosts its chunks at no capacity loss.
func (p *Plan) Downgrade() {
	for _, vm := range p.VMs {
		if vm.used == 0 {
			continue
		}
		var best *cloud.Class
		bestTotal := 0
		for _, c := range p.menu.Classes() {
			if c.PricePerHour >= vm.Class.PricePerHour {
				continue
			}
			total := 0
			for _, ch := range vm.chunks {
				total += coresFor(float64(ch.cores)*vm.Class.CoreSpeed, c)
			}
			if total <= c.Cores && (best == nil || c.PricePerHour < best.PricePerHour) {
				best, bestTotal = c, total
			}
		}
		if best != nil {
			for i, ch := range vm.chunks {
				vm.chunks[i].cores = coresFor(float64(ch.cores)*vm.Class.CoreSpeed, best)
			}
			vm.Class, vm.used = best, bestTotal
		}
	}
	p.dropEmpty()
}

// dropEmpty removes VMs without cores and resets AddCore's scan.
func (p *Plan) dropEmpty() {
	out := p.VMs[:0]
	for _, vm := range p.VMs {
		if vm.used > 0 {
			out = append(out, vm)
		}
	}
	clear(p.VMs[len(out):])
	p.VMs = out
	p.open = 0
}

// Materialize acquires the planned VMs and assigns cores through the
// simulator's action surface, in deterministic order.
func (p *Plan) Materialize(act sim.Control) error {
	for _, vm := range p.VMs {
		id, err := act.AcquireVM(vm.Class.Name)
		if err != nil {
			return fmt.Errorf("core: materialize: %w", err)
		}
		for _, c := range vm.chunks {
			if err := act.AssignCores(c.pe, id, c.cores); err != nil {
				return fmt.Errorf("core: materialize: %w", err)
			}
		}
	}
	return nil
}
