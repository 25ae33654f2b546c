package core

import (
	"cmp"
	"fmt"
	"slices"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/sim"
)

// decisionSink returns the provenance side-channel of the control surface,
// or nil when none is attached (or nothing observes it) — the nil check
// keeps untraced runs free of provenance assembly.
func decisionSink(act sim.Control) sim.DecisionSink {
	if ds, ok := act.(sim.DecisionSink); ok && ds.DecisionsObserved() {
		return ds
	}
	return nil
}

// scratch is the resource stage's working memory, reused across Adapt calls
// so that walking the fleet allocates nothing once the buffers have grown
// to its size. Every buffer is refilled
// before it is read: nothing carries over from one call to the next, and
// nothing here is checkpointed.
type scratch struct {
	vms      []sim.VMInfo     // the active fleet, id order
	asg      []sim.Assignment // one PE's allocation
	eff      []float64        // effectiveECU's result
	required []float64        // resourceStage's per-PE target ECU
	shed     []shedOption     // removeCore's candidates

	// consolidate's fleet index: positions are indices into vms.
	pos    []int   // VM id -> position
	order  []int   // positions in victim order
	free   []int   // free cores by position
	start  []int   // chunks of position i are chunks[start[i]:start[i+1]]
	flat   []chunk // every assignment, PE order
	chunks []chunk // flat bucketed by position
	moves  []move  // the victim being planned
}

// chunk is one PE's cores on the VM at position at.
type chunk struct{ pe, at, cores int }

// move plans a PE's cores on the victim as need cores on position dst.
type move struct{ pe, cores, dst, need int }

// shedOption is one core removeCore may take away.
type shedOption struct {
	vmID     int
	contrib  float64
	usedOnVM int
	spot     bool
}

// resize returns buf with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// resourceStage is Alg. 2's resource re-deployment: grow bottleneck PEs
// while the required capacity is not met, shrink over-provisioned PEs when
// there is comfortable headroom, consolidate (global only), and release
// idle VMs as they approach their paid hour boundary.
func (h *Heuristic) resourceStage(v *sim.View, act sim.Control) error {
	sink := decisionSink(act)
	g := v.Graph()
	sel := v.Selection()
	demand, err := h.demandECU(v, sel)
	if err != nil {
		return err
	}
	target := h.targetOmega(v.MeanOmega())
	eff := h.effectiveECU(v)

	h.scratch.required = resize(h.scratch.required, g.N())
	required := h.scratch.required
	for pe := range required {
		required[pe] = demand[pe] * target
	}

	// Latency QoS: when a mean-latency bound is set, size each PE to also
	// drain its current backlog within the bound — capacity beyond the
	// arrival-rate requirement, proportional to the queue.
	if bound := h.opts.Objective.LatencyHatSec; bound > 0 && v.EstimatedLatencySec() > bound/2 {
		for pe := range required {
			if backlog := v.Backlog(pe); backlog > 0 {
				required[pe] += backlog / bound * sel.Alt(g, pe).Cost
			}
		}
	}

	// Scale up: repeatedly grow the PE with the worst capacity ratio.
	// With UseSpot, capacity beyond the PE's constraint-critical base
	// (demand * OmegaHat, on-demand) spills onto the spot market.
	// One fleet snapshot serves the whole loop: addCore keeps it current.
	h.scratch.vms = v.ActiveVMsInto(h.scratch.vms[:0])
	grown := 0
	for grown < h.opts.MaxGrowPerInterval {
		bottleneck, worst := -1, 1e18
		for pe := range required {
			if required[pe] <= 1e-12 {
				continue
			}
			r := eff[pe] / required[pe]
			if r < 1-1e-9 && r < worst {
				worst = r
				bottleneck = pe
			}
		}
		if bottleneck < 0 {
			break
		}
		spill := h.opts.UseSpot &&
			eff[bottleneck] >= demand[bottleneck]*h.opts.Objective.OmegaHat
		var dec *obs.Decision
		if sink != nil {
			spillF := 0.0
			if spill {
				spillF = 1
			}
			dec = &obs.Decision{
				Kind: "scale-up", PE: bottleneck,
				Inputs: map[string]float64{
					"meanOmega":    v.MeanOmega(),
					"targetOmega":  target,
					"demandEcu":    demand[bottleneck],
					"requiredEcu":  required[bottleneck],
					"effectiveEcu": eff[bottleneck],
					"spill":        spillF,
				},
			}
		}
		added, err := h.addCore(v, act, bottleneck, required[bottleneck]-eff[bottleneck], spill, dec)
		if err != nil {
			return err
		}
		if dec != nil {
			sink.Decide(*dec)
		}
		if added <= 0 {
			break // could not add (fleet cap); stop rather than spin
		}
		eff[bottleneck] += added
		grown++
	}

	// Scale down: only with hysteresis headroom, and never below one core.
	for pe := range required {
		relax := required[pe] + demand[pe]*h.opts.Hysteresis
		for eff[pe] > relax {
			var dec *obs.Decision
			if sink != nil {
				dec = &obs.Decision{
					Kind: "scale-down", PE: pe,
					Inputs: map[string]float64{
						"meanOmega":    v.MeanOmega(),
						"demandEcu":    demand[pe],
						"requiredEcu":  required[pe],
						"relaxEcu":     relax,
						"effectiveEcu": eff[pe],
						"hysteresis":   h.opts.Hysteresis,
					},
				}
			}
			removed, err := h.removeCore(v, act, pe, eff[pe]-relax, dec)
			if err != nil {
				return err
			}
			// A stuck shrink would re-emit an identical no-action decision
			// every interval; only record shrinks that moved a core.
			if dec != nil && removed > 0 {
				sink.Decide(*dec)
			}
			if removed <= 0 {
				break
			}
			eff[pe] -= removed
		}
	}

	if h.opts.Strategy == Global && !h.opts.NoConsolidate {
		if err := h.consolidate(v, act); err != nil {
			return err
		}
	}
	return h.releaseIdle(v, act)
}

// addCore gives the PE one more core: a free core on a VM already hosting
// it, then the best free core anywhere (already paid for — effectively
// free), then a newly acquired VM — largest class under the local strategy,
// the smallest class covering the remaining deficit under global (best
// fit); with spill set and a spot market on the menu, the new VM is the
// cheapest preemptible class instead. It returns the effective ECU added
// (0 when the fleet cap blocks). A non-nil dec is filled with the
// candidates weighed, their scores, and why the losers lost.
//
// The active fleet comes from h.scratch.vms, which the caller fills;
// addCore applies its own assignment or acquisition to it, so it still
// matches the fleet for the next call. Nothing else changes the fleet
// while the grow loop runs.
func (h *Heuristic) addCore(v *sim.View, act sim.Control, pe int, deficitECU float64, spill bool, dec *obs.Decision) (float64, error) {
	s := &h.scratch
	s.asg = v.AssignmentsInto(pe, s.asg[:0])
	var best sim.VMInfo
	bestAt := -1
	bestScore := -1.0
	hosted := s.asg // the PE's VMs not yet passed; both lists ascend by id
	for at, vm := range s.vms {
		for len(hosted) > 0 && hosted[0].VMID < vm.ID {
			hosted = hosted[1:]
		}
		if vm.FreeCores <= 0 {
			continue
		}
		score := vm.Class.CoreSpeed * vm.CPUCoeff
		if len(hosted) > 0 && hosted[0].VMID == vm.ID {
			score *= 4 // strongly prefer collocating with the PE's instances
		}
		if dec != nil {
			dec.Options = append(dec.Options, obs.DecisionOption{
				Name: fmt.Sprintf("free core on vm-%d (%s)", vm.ID, vm.Class.Name), Score: score})
		}
		if score > bestScore {
			bestScore = score
			best = vm
			bestAt = at
		}
	}
	if bestAt >= 0 {
		if err := act.AssignCores(pe, best.ID, 1); err != nil {
			return 0, err
		}
		s.vms[bestAt].UsedCores++
		s.vms[bestAt].FreeCores--
		if dec != nil {
			chosen := fmt.Sprintf("free core on vm-%d (%s)", best.ID, best.Class.Name)
			for i := range dec.Options {
				if dec.Options[i].Name != chosen {
					dec.Options[i].Rejected = "outscored"
				}
			}
			dec.Chosen = fmt.Sprintf("assign-cores vm-%d", best.ID)
			dec.Reason = "already-paid free core available"
		}
		return best.Class.CoreSpeed * best.CPUCoeff, nil
	}
	// Capacity that is still provisioning counts against the deficit:
	// acquiring again while a boot is in flight double-provisions. Reserve a
	// core on the pending VM for this PE so it starts working the moment it
	// boots, and report no effective capacity added — the grow loop then
	// waits for the boot instead of stacking further acquisitions.
	for _, p := range v.PendingVMs() {
		if p.UsedCores >= p.Class.Cores {
			continue
		}
		if err := act.AssignCores(pe, p.ID, 1); err != nil {
			return 0, err
		}
		if dec != nil {
			dec.Chosen = fmt.Sprintf("reserve core on pending vm-%d (%s)", p.ID, p.Class.Name)
			dec.Reason = "capacity already provisioning; wait for the boot instead of stacking acquisitions"
		}
		return 0, nil
	}
	// Acquire a new VM. Policies plan on the on-demand view; spot classes
	// are only touched through the explicit spill path.
	menu := v.Menu()
	onDemand := menu.OnDemand()
	class := onDemand.Largest()
	if h.opts.Strategy == Global {
		if deficitECU < class.CoreSpeed {
			deficitECU = class.CoreSpeed
		}
		if c := onDemand.SmallestFitting(deficitECU); c != nil {
			class = c
		}
	}
	if spill {
		need := deficitECU
		if need < class.CoreSpeed {
			need = class.CoreSpeed
		}
		if c := menu.CheapestPreemptibleFitting(need); c != nil {
			class = c
		}
	}
	if dec != nil {
		considered := menu.Classes()
		if !spill {
			considered = onDemand.Classes()
		}
		for _, c := range considered {
			opt := obs.DecisionOption{Name: c.Name, Score: c.CoreSpeed}
			switch {
			case c.Name == class.Name:
				// chosen
			case spill && !c.Preemptible:
				opt.Rejected = "spill targets the spot market"
			case c.CoreSpeed < deficitECU:
				opt.Rejected = "below the remaining deficit"
			default:
				opt.Rejected = "not the best fit"
			}
			dec.Options = append(dec.Options, opt)
		}
	}
	id, err := act.AcquireVM(class.Name)
	if err != nil {
		// Fleet cap reached: degrade gracefully, the next interval retries.
		if dec != nil {
			dec.Reason = fmt.Sprintf("acquire %s failed (%v); retry next interval", class.Name, err)
		}
		return 0, nil
	}
	if err := act.AssignCores(pe, id, 1); err != nil {
		return 0, err
	}
	if vm, ok := v.VM(id); ok {
		s.vms = append(s.vms, vm)
	}
	if dec != nil {
		dec.Chosen = fmt.Sprintf("acquire %s (vm-%d)", class.Name, id)
		if spill {
			dec.Reason = "beyond the constraint-critical base; spill onto the spot market"
		} else if h.opts.Strategy == Global {
			dec.Reason = "smallest on-demand class covering the deficit"
		} else {
			dec.Reason = "largest on-demand class (local strategy)"
		}
	}
	return class.CoreSpeed, nil
}

// removeCore takes one core away from the PE, preferring the emptiest
// hosting VM so that instances consolidate and whole VMs free up. It never
// removes the PE's last core, and never removes a core whose effective
// contribution exceeds maxRemove (that would undershoot the requirement).
// It returns the effective ECU removed (0 when nothing is safely
// removable). A non-nil dec is filled with the shed candidates in order
// and why the skipped ones were kept.
func (h *Heuristic) removeCore(v *sim.View, act sim.Control, pe int, maxRemove float64, dec *obs.Decision) (float64, error) {
	s := &h.scratch
	s.asg = v.AssignmentsInto(pe, s.asg[:0])
	totalCores := 0
	for _, a := range s.asg {
		totalCores += a.Cores
	}
	if totalCores <= 1 {
		if dec != nil {
			dec.Reason = "last core protected"
		}
		return 0, nil
	}
	opts := s.shed[:0]
	for _, a := range s.asg {
		vm, ok := v.VM(a.VMID)
		if !ok {
			continue
		}
		opts = append(opts, shedOption{
			vmID:     a.VMID,
			contrib:  vm.Class.CoreSpeed * vm.CPUCoeff,
			usedOnVM: vm.UsedCores,
			spot:     vm.Class.Preemptible,
		})
	}
	s.shed = opts
	slices.SortStableFunc(opts, func(a, b shedOption) int {
		// Shed spot headroom before on-demand capacity, then prefer
		// emptying the emptiest VM, then the weakest core.
		if a.spot != b.spot {
			if a.spot {
				return -1
			}
			return 1
		}
		if a.usedOnVM != b.usedOnVM {
			return cmp.Compare(a.usedOnVM, b.usedOnVM)
		}
		return cmp.Compare(a.contrib, b.contrib)
	})
	for i, o := range opts {
		if o.contrib > maxRemove+1e-9 {
			if dec != nil {
				dec.Options = append(dec.Options, obs.DecisionOption{
					Name:     fmt.Sprintf("core on vm-%d", o.vmID),
					Score:    o.contrib,
					Rejected: "contribution exceeds removable headroom",
				})
			}
			continue
		}
		if err := act.UnassignCores(pe, o.vmID, 1); err != nil {
			return 0, err
		}
		if dec != nil {
			dec.Options = append(dec.Options, obs.DecisionOption{
				Name: fmt.Sprintf("core on vm-%d", o.vmID), Score: o.contrib})
			for _, rest := range opts[i+1:] {
				dec.Options = append(dec.Options, obs.DecisionOption{
					Name:     fmt.Sprintf("core on vm-%d", rest.vmID),
					Score:    rest.contrib,
					Rejected: "later in the shed order (spot first, emptiest VM, weakest core)",
				})
			}
			dec.Chosen = fmt.Sprintf("unassign-cores vm-%d", o.vmID)
			dec.Reason = "hysteresis headroom above the requirement"
		}
		return o.contrib, nil
	}
	if dec != nil {
		dec.Reason = "every candidate core contributes more than the removable headroom"
	}
	return 0, nil
}

// consolidate (global strategy) empties at most one lightly used VM per
// stage by moving its core chunks into free cores elsewhere, so the idle VM
// can be released at its hour boundary. Chunk conversion preserves rated
// capacity: n cores at speed s need ceil(n*s/s') cores at speed s'.
//
// Victims are tried in stable ascending-utilization order; each chunk goes
// to the tightest-fitting destination, the lowest VM id among ties. The
// fleet is indexed once per call — positions in id order, per-VM chunk
// lists in PE order — and each victim is planned against one free-core
// array that a failed plan gives back.
func (h *Heuristic) consolidate(v *sim.View, act sim.Control) error {
	s := &h.scratch
	s.vms = v.ActiveVMsInto(s.vms[:0])
	vms := s.vms
	if len(vms) == 0 {
		return nil
	}
	// pos maps an active VM's id to its position in vms (id order); ids of
	// inactive VMs keep stale entries, but assignments name only active VMs.
	s.pos = resize(s.pos, vms[len(vms)-1].ID+1)
	s.free = resize(s.free, len(vms))
	s.order = resize(s.order, len(vms))
	for i, vm := range vms {
		s.pos[vm.ID] = i
		s.free[i] = vm.FreeCores
		s.order[i] = i
	}
	slices.SortStableFunc(s.order, func(a, b int) int {
		ua := float64(vms[a].UsedCores) / float64(vms[a].Class.Cores)
		ub := float64(vms[b].UsedCores) / float64(vms[b].Class.Cores)
		switch {
		case ua < ub:
			return -1
		case ub < ua:
			return 1
		}
		return 0
	})
	// Bucket every assignment by VM position (a counting sort): start[i]
	// counts position i's chunks, the prefix sums turn the counts into
	// range ends, and filling in reverse walks each end back to its range's
	// start, so the chunks of position i are chunks[start[i]:start[i+1]],
	// in PE order.
	g := v.Graph()
	s.flat = s.flat[:0]
	s.start = resize(s.start, len(vms)+1)
	clear(s.start)
	for pe := 0; pe < g.N(); pe++ {
		s.asg = v.AssignmentsInto(pe, s.asg[:0])
		for _, a := range s.asg {
			at := s.pos[a.VMID]
			s.flat = append(s.flat, chunk{pe: pe, at: at, cores: a.Cores})
			s.start[at]++
		}
	}
	for i := 1; i < len(s.start); i++ {
		s.start[i] += s.start[i-1]
	}
	s.chunks = resize(s.chunks, len(s.flat))
	for i := len(s.flat) - 1; i >= 0; i-- {
		c := s.flat[i]
		s.start[c.at]--
		s.chunks[s.start[c.at]] = c
	}

	for _, vp := range s.order {
		victim := vms[vp]
		if victim.UsedCores == 0 {
			continue
		}
		s.moves = s.moves[:0]
		ok := true
		for _, c := range s.chunks[s.start[vp]:s.start[vp+1]] {
			ecu := float64(c.cores) * victim.Class.CoreSpeed
			bestDst, bestNeed := -1, 0
			for dst := range vms {
				dstClass := vms[dst].Class
				// Never consolidate on-demand capacity onto spot VMs: the
				// constraint-critical base must survive reclamations.
				if dst == vp || dstClass.Preemptible && !victim.Class.Preemptible {
					continue
				}
				f := s.free[dst]
				need := coresNeeded(ecu, dstClass)
				if need == 0 {
					need = 1
				}
				if need <= f && (bestDst < 0 || f-need < s.free[bestDst]-bestNeed) {
					bestDst, bestNeed = dst, need
				}
			}
			if bestDst < 0 {
				ok = false
				break
			}
			s.free[bestDst] -= bestNeed
			s.moves = append(s.moves, move{pe: c.pe, cores: c.cores, dst: bestDst, need: bestNeed})
		}
		if !ok {
			for _, m := range s.moves {
				s.free[m.dst] += m.need
			}
			continue
		}
		for _, m := range s.moves {
			if err := act.AssignCores(m.pe, vms[m.dst].ID, m.need); err != nil {
				return err
			}
			if err := act.UnassignCores(m.pe, victim.ID, m.cores); err != nil {
				return err
			}
		}
		return nil // one consolidation per stage damps churn
	}
	return nil
}

// releaseIdle releases empty VMs approaching their paid hour boundary; an
// empty VM far from the boundary is kept as already-paid spare capacity.
func (h *Heuristic) releaseIdle(v *sim.View, act sim.Control) error {
	sink := decisionSink(act)
	window := h.opts.ReleaseWindowSec
	if window == 0 {
		window = 2 * v.IntervalSec()
	}
	s := &h.scratch
	s.vms = v.ActiveVMsInto(s.vms[:0])
	for _, vm := range s.vms {
		if vm.UsedCores != 0 {
			continue
		}
		if vm.SecsToHourBoundary <= window {
			if err := act.ReleaseVM(vm.ID); err != nil {
				return err
			}
			if sink != nil {
				sink.Decide(obs.Decision{
					Kind:   "release",
					Chosen: fmt.Sprintf("release-vm vm-%d (%s)", vm.ID, vm.Class.Name),
					Reason: "idle and approaching its paid hour boundary",
					Inputs: map[string]float64{
						"secsToHourBoundary": float64(vm.SecsToHourBoundary),
						"windowSec":          float64(window),
					},
				})
			}
		}
	}
	return nil
}
