package core

import (
	"fmt"
	"math"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
)

// Strategy selects between the paper's two heuristic variants (Table 1).
type Strategy int

const (
	// Local decisions use only per-PE information: an alternate's cost is
	// its own processing cost, and no repacking is performed.
	Local Strategy = iota
	// Global decisions account for downstream impact: an alternate's cost
	// includes the selectivity-weighted cost of all downstream PEs, and
	// the resource allocation is repacked across VM classes.
	Global
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Global {
		return "global"
	}
	return "local"
}

// SelectAlternates performs Alg. 1's alternate-selection stage: for every
// PE choose the alternate with the highest value-to-cost ratio, where cost
// is strategy-dependent (Table 1's GetCostOfAlternate). The global cost is
// computed by dynamic programming over the graph in reverse topological
// order, so each PE's choice already reflects its successors' choices; it
// sums only the successors active under the routing, since a choice
// target off the active route receives no messages.
func SelectAlternates(g *dataflow.Graph, routing dataflow.Routing, strategy Strategy) (dataflow.Selection, error) {
	if err := routing.Validate(g); err != nil {
		return nil, err
	}
	sel := dataflow.DefaultSelection(g)
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	// nodeCost[i]: per-message cost entering PE i with its chosen
	// alternate, including downstream (only used by Global).
	nodeCost := make([]float64, g.N())
	for k := len(order) - 1; k >= 0; k-- {
		pe := order[k]
		down := 0.0
		for _, s := range g.ActiveSuccessors(pe, routing) {
			down += nodeCost[s]
		}
		bestRatio := math.Inf(-1)
		for j, a := range g.PEs[pe].Alternates {
			cost := a.Cost
			if strategy == Global {
				cost = a.Cost + a.Selectivity*down
			}
			if ratio := a.Value / cost; ratio > bestRatio {
				bestRatio = ratio
				sel[pe] = j
			}
		}
		chosen := g.PEs[pe].Alternates[sel[pe]]
		nodeCost[pe] = chosen.Cost + chosen.Selectivity*down
	}
	return sel, nil
}

// PlanAllocation performs Alg. 1's resource-allocation stage: give every PE
// one core in forward-BFS order (collocating neighbours), then repeatedly
// grow the bottleneck PE — the one with the lowest predicted relative
// throughput — until the predicted application throughput reaches target.
// The global strategy then repacks (RepackPE + iterative repacking +
// downgrade) and grows again, since the integral-core conversions may cost
// throughput. Rates are the estimated input rates; VM performance is
// assumed rated, as the paper does at deployment time.
func PlanAllocation(g *dataflow.Graph, menu *cloud.Menu, sel dataflow.Selection,
	routing dataflow.Routing, est dataflow.InputRates, target float64, strategy Strategy) (*Plan, error) {
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("core: allocation target %v outside (0,1]", target)
	}
	plan := NewPlan(menu)
	for _, pe := range g.ForwardBFS() {
		plan.AddCore(pe)
	}
	flow, err := dataflow.NewRoutedFlow(g, sel, routing, est)
	if err != nil {
		return nil, err
	}
	maxCores := 64 * g.N() * (1 + int(totalRate(est)))
	if err := plan.grow(g, sel, flow, target, maxCores); err != nil {
		return nil, err
	}
	if strategy == Global {
		inRate := flow.InRates()
		demand := make([]float64, g.N())
		for pe := 0; pe < g.N(); pe++ {
			demand[pe] = inRate[pe] * sel.Alt(g, pe).Cost * target
		}
		plan.RepackPE(demand)
		plan.IterativeRepack()
		plan.Downgrade()
		if err := plan.grow(g, sel, flow, target, maxCores); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// grow is Alg. 1's incremental bottleneck-driven growth
// (INCREMENTAL_ALLOCATION): while the predicted Ω is below target, add a
// core to the loaded PE with the lowest predicted throughput (the lowest
// index on ties). Each added core costs one capped pass and a recount of
// the grown PE's capacity.
func (p *Plan) grow(g *dataflow.Graph, sel dataflow.Selection, flow *dataflow.RoutedFlow, target float64, maxCores int) error {
	inRate := flow.InRates()
	tracked := p.trackCapacities(g, sel)
	for iter := 0; ; iter++ {
		omega, th := flow.Capped(tracked.caps)
		if omega >= target-1e-9 {
			return nil
		}
		if iter > maxCores {
			return fmt.Errorf("core: allocation did not converge after %d cores (omega %.3f < %.3f)", iter, omega, target)
		}
		bottleneck, worst := -1, math.Inf(1)
		for pe, r := range inRate {
			if r > 0 && th[pe] < worst {
				worst, bottleneck = th[pe], pe
			}
		}
		if bottleneck < 0 {
			return nil // nothing carries load; one core each suffices
		}
		tracked.addCore(bottleneck)
	}
}

func totalRate(in dataflow.InputRates) float64 {
	t := 0.0
	for _, r := range in {
		t += r
	}
	return t
}
