package core

import (
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/sim"
)

// pathStage extends Alg. 2's alternate selection to dynamic paths (§9): for
// every choice group, rank the candidate routes by routed application value
// per unit of per-message route cost, and — inside the same throughput
// band logic as alternates — switch to a cheaper route when the constraint
// is slipping or a richer route when there is headroom. A no-op for graphs
// without choice groups.
func (h *Heuristic) pathStage(v *sim.View, act sim.Control) error {
	g := v.Graph()
	if len(g.Choices) == 0 {
		return nil
	}
	h.scratch.sel = v.SelectionInto(h.scratch.sel[:0])
	sel := h.scratch.sel
	routing := v.Routing()
	obj := h.opts.Objective
	omega := v.MeanOmega()
	under := omega <= obj.OmegaHat-obj.Epsilon
	over := omega >= obj.OmegaHat+obj.Epsilon
	if !under && !over {
		return nil
	}
	for gi := range g.Choices {
		costs, err := dataflow.RouteCosts(g, sel, routing, gi)
		if err != nil {
			return err
		}
		active := routing[gi]
		type cand struct {
			idx   int
			cost  float64
			ratio float64
		}
		var feasible []cand
		for ti := range g.Choices[gi].Targets {
			if ti == active {
				continue
			}
			if under && costs[ti] >= costs[active] {
				continue // need a cheaper path
			}
			if over && costs[ti] <= costs[active] {
				continue // room to route through a richer path
			}
			trial := routing.Clone()
			trial[gi] = ti
			if over && !h.routeFits(v, sel, trial) {
				// The richer path would demand more than the fleet can
				// sustain (monitored performance, acquisition quota):
				// upgrading would just collapse throughput again.
				continue
			}
			val, err := dataflow.RoutedValue(g, sel, trial)
			if err != nil {
				return err
			}
			feasible = append(feasible, cand{idx: ti, cost: costs[ti], ratio: val / costs[ti]})
		}
		best := -1
		bestRatio := 0.0
		for _, c := range feasible {
			if best < 0 || c.ratio > bestRatio {
				best = c.idx
				bestRatio = c.ratio
			}
		}
		if best >= 0 {
			if err := act.SelectRoute(gi, best); err != nil {
				return err
			}
			routing[gi] = best
		}
	}
	return nil
}

// routeFits estimates whether the fleet — as it currently performs, plus
// whatever the acquisition quota still allows, discounted by the monitored
// fleet-average coefficient — can sustain the demand the trial routing
// implies.
func (h *Heuristic) routeFits(v *sim.View, sel dataflow.Selection, trial dataflow.Routing) bool {
	g := v.Graph()
	s := &h.scratch
	s.rates = v.EstimatedInputRatesInto(s.rates)
	if err := s.flow.Prepare(g, sel, trial, s.rates); err != nil {
		return false
	}
	inRate := s.flow.InRates()
	target := h.opts.Objective.OmegaHat + margin
	demand := 0.0
	for pe := range g.PEs {
		demand += inRate[pe] * sel.Alt(g, pe).Cost * target
	}
	vms := v.ActiveVMs()
	current := 0.0
	coeffSum := 0.0
	for _, vm := range vms {
		current += float64(vm.Class.Cores) * vm.Class.CoreSpeed * vm.CPUCoeff
		coeffSum += vm.CPUCoeff
	}
	meanCoeff := 1.0
	if len(vms) > 0 {
		meanCoeff = coeffSum / float64(len(vms))
	}
	headroomVMs := v.MaxVMs() - len(vms)
	if headroomVMs < 0 {
		headroomVMs = 0
	}
	potential := current + float64(headroomVMs)*v.Menu().Largest().Capacity()*meanCoeff
	return demand <= potential
}
