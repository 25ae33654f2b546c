package core

import (
	"fmt"
	"math"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/sim"
)

// BruteForce is the paper's "static brute-force optimal deployment for
// small graphs (that assumes no variations)": it enumerates every alternate
// combination, prices the cheapest VM fleet covering each combination's
// core demand, and deploys the combination maximizing the objective
// Theta = Gamma - sigma * cost over the optimization period. It never
// adapts at runtime. The search is exponential in the number of PEs with
// alternates, which is exactly why the paper reports it "takes
// prohibitively long to find a solution for higher data rates" on larger
// instances; MaxCombos bounds the enumeration.
type BruteForce struct {
	// Objective supplies OmegaHat and Sigma.
	Objective Objective
	// HorizonHours prices fleets over the optimization period.
	HorizonHours float64
	// MaxCombos bounds the enumeration (default 1<<20).
	MaxCombos int
}

// NewBruteForce validates and returns the policy.
func NewBruteForce(obj Objective, horizonHours float64) (*BruteForce, error) {
	if err := obj.Validate(); err != nil {
		return nil, err
	}
	if horizonHours <= 0 {
		return nil, fmt.Errorf("core: brute force horizon %v <= 0", horizonHours)
	}
	return &BruteForce{Objective: obj, HorizonHours: horizonHours, MaxCombos: 1 << 20}, nil
}

// Name implements sim.Scheduler.
func (b *BruteForce) Name() string { return "bruteforce-static" }

// Adapt implements sim.Scheduler: a static deployment never adapts.
func (b *BruteForce) Adapt(*sim.View, sim.Control) error { return nil }

// Deploy implements sim.Scheduler.
func (b *BruteForce) Deploy(v *sim.View, act sim.Control) error {
	g := v.Graph()
	// A static deployment cannot replace preempted capacity: on-demand only.
	menu := v.Menu().OnDemand()
	est := v.EstimatedInputRates()
	// Like Alg. 1, provision for the constraint itself under assumed-rated
	// performance; the brute force explicitly "assumes no variations".
	target := b.Objective.OmegaHat

	combos := 1
	for _, pe := range g.PEs {
		combos *= len(pe.Alternates)
		if b.MaxCombos > 0 && combos > b.MaxCombos {
			return fmt.Errorf("core: brute force: %d combinations exceed budget %d", combos, b.MaxCombos)
		}
	}
	routeCombos := 1
	for _, c := range g.Choices {
		routeCombos *= len(c.Targets)
		if b.MaxCombos > 0 && combos*routeCombos > b.MaxCombos {
			return fmt.Errorf("core: brute force: %d combinations exceed budget %d", combos*routeCombos, b.MaxCombos)
		}
	}

	sel := dataflow.DefaultSelection(g)
	routing := dataflow.DefaultRouting(g)
	bestTheta := math.Inf(-1)
	var bestSel dataflow.Selection
	var bestRouting dataflow.Routing
	var bestPlan *Plan
	var flow dataflow.RoutedFlow
	for rc := 0; rc < routeCombos; rc++ {
		rrem := rc
		for gi := range g.Choices {
			n := len(g.Choices[gi].Targets)
			routing[gi] = rrem % n
			rrem /= n
		}
		for c := 0; c < combos; c++ {
			// Decode combination c into a selection.
			rem := c
			for pe := range g.PEs {
				n := len(g.PEs[pe].Alternates)
				sel[pe] = rem % n
				rem /= n
			}
			if err := flow.Prepare(g, sel, routing, est); err != nil {
				return err
			}
			inRate := flow.InRates()
			demand := make([]float64, g.N())
			for pe := range demand {
				demand[pe] = inRate[pe] * sel.Alt(g, pe).Cost * target
			}
			plan, err := minCostPlan(menu, demand)
			if err != nil {
				return err
			}
			val, err := dataflow.RoutedValue(g, sel, routing)
			if err != nil {
				return err
			}
			theta := b.Objective.Theta(val, plan.HourlyCost()*b.HorizonHours)
			if theta > bestTheta {
				bestTheta = theta
				bestSel = sel.Clone()
				bestRouting = routing.Clone()
				bestPlan = plan
			}
		}
	}
	if bestPlan == nil {
		return fmt.Errorf("core: brute force found no feasible deployment")
	}
	for pe, alt := range bestSel {
		if err := act.SelectAlternate(pe, alt); err != nil {
			return err
		}
	}
	for gi, t := range bestRouting {
		if err := act.SelectRoute(gi, t); err != nil {
			return err
		}
	}
	return bestPlan.Materialize(act)
}

// minCostPlan builds the cheapest fleet covering per-PE ECU demands. Cores
// are fungible across PEs only within a VM, but PEs may span VMs, so the
// packing decomposes per PE: each PE independently takes whole cores of the
// classes with the best price per ECU, topping the remainder with the
// cheapest class that covers it; cores of the same class are then packed
// into as few VMs as possible (a PE always needs at least one core). For
// linearly priced menus with single-core classes at every speed — such as
// the 2013 AWS menu — this is cost-optimal; for other menus it is an upper
// bound, which suffices for a baseline that assumes no variability.
func minCostPlan(menu *cloud.Menu, demand []float64) (*Plan, error) {
	// Best price-per-ECU class for bulk cores, cheapest class for scraps.
	classes := menu.Classes()
	bulk := classes[0]
	for _, c := range classes[1:] {
		if c.CostPerECUHour() < bulk.CostPerECUHour()-1e-12 ||
			(math.Abs(c.CostPerECUHour()-bulk.CostPerECUHour()) < 1e-12 && c.Cores > bulk.Cores) {
			bulk = c
		}
	}
	plan := NewPlan(menu)
	// coresWanted[class] accumulates whole cores to pack per class.
	type want struct {
		pe    int
		cores int
	}
	wants := map[*cloud.Class][]want{}
	for pe, d := range demand {
		if d <= 0 {
			// Liveness: every PE needs one core; use the cheapest class.
			cheap := cheapestClass(menu)
			wants[cheap] = append(wants[cheap], want{pe: pe, cores: 1})
			continue
		}
		full := int(d / bulk.CoreSpeed)
		rem := d - float64(full)*bulk.CoreSpeed
		if full > 0 {
			wants[bulk] = append(wants[bulk], want{pe: pe, cores: full})
		}
		if rem > 1e-9 {
			// Cheapest single core covering the remainder.
			var best *cloud.Class
			for _, c := range classes {
				if c.CoreSpeed+1e-12 < rem {
					continue
				}
				perCore := c.PricePerHour / float64(c.Cores)
				if best == nil || perCore < best.PricePerHour/float64(best.Cores) {
					best = c
				}
			}
			if best == nil {
				best = bulk
				// Remainder exceeds every class's core speed (impossible
				// with rem < bulk speed, but stay safe).
			}
			wants[best] = append(wants[best], want{pe: pe, cores: 1})
		} else if full == 0 {
			wants[bulk] = append(wants[bulk], want{pe: pe, cores: 1})
		}
	}
	// Pack per class, filling VMs core by core. Iterate the menu order so
	// the plan is deterministic (map iteration is not).
	for _, class := range classes {
		ws, ok := wants[class]
		if !ok {
			continue
		}
		var open *PlanVM
		for _, w := range ws {
			for i := 0; i < w.cores; i++ {
				if open == nil || open.FreeCores() == 0 {
					open = plan.openVM(class)
				}
				open.add(w.pe, 1)
			}
		}
	}
	return plan, nil
}

func cheapestClass(menu *cloud.Menu) *cloud.Class {
	classes := menu.Classes()
	best := classes[0]
	for _, c := range classes[1:] {
		if c.PricePerHour < best.PricePerHour {
			best = c
		}
	}
	return best
}
