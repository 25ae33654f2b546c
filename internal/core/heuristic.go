package core

import (
	"fmt"
	"slices"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/sim"
)

// Options configures a heuristic policy. The zero value is not valid; use
// NewHeuristic which applies the paper's defaults.
type Options struct {
	// Strategy picks local or global decision making (Table 1).
	Strategy Strategy
	// Dynamic enables the alternate-selection stage ("application
	// dynamism"); disabled it reproduces the paper's ablation that always
	// runs the default (best-value) alternates.
	Dynamic bool
	// Adaptive enables runtime adaptation; disabled the policy is a static
	// deployment (deploy once, never touch).
	Adaptive bool
	// Objective supplies OmegaHat/Epsilon/Sigma.
	Objective Objective
	// AlternatePeriod is how many intervals between alternate-selection
	// runs (Alg. 2 runs the two stages at different cadences; the resource
	// stage runs every interval). Default 5.
	AlternatePeriod int
	// Hysteresis is the extra headroom required before scaling down, to
	// damp oscillation. Default 0.10.
	Hysteresis float64
	// ReleaseWindowSec releases an empty VM only within this many seconds
	// of its paid hour boundary (an already-paid VM is free spare
	// capacity). Default 2 intervals at runtime.
	ReleaseWindowSec int64
	// MaxGrowPerInterval bounds cores added per adaptation step. Default
	// 64.
	MaxGrowPerInterval int
	// NoConsolidate disables the global strategy's runtime consolidation
	// (ablation knob; the paper's global heuristic consolidates).
	NoConsolidate bool
	// UseSpot lets the resource stage place capacity BEYOND a PE's base
	// requirement on preemptible (spot) VMs when the menu offers them: the
	// constraint-critical base stays on on-demand capacity, the headroom
	// rides the cheap market and is re-provisioned when reclaimed. An
	// extension beyond the paper's on-demand-only model.
	UseSpot bool
}

// Heuristic is the paper's deployment + runtime-adaptation policy. It
// implements sim.Scheduler.
type Heuristic struct {
	opts  Options
	ticks int
	// scratch is working memory, not state (see scratch): one Heuristic
	// drives one engine at a time.
	scratch scratch
}

// NewHeuristic validates options, applies defaults, and returns the policy.
func NewHeuristic(opts Options) (*Heuristic, error) {
	if err := opts.Objective.Validate(); err != nil {
		return nil, err
	}
	if opts.AlternatePeriod == 0 {
		opts.AlternatePeriod = 5
	}
	if opts.AlternatePeriod < 1 {
		return nil, fmt.Errorf("core: alternate period must be >= 1 (got %d)", opts.AlternatePeriod)
	}
	if opts.Hysteresis == 0 {
		opts.Hysteresis = 0.10
	}
	if opts.Hysteresis < 0 {
		return nil, fmt.Errorf("core: hysteresis %v < 0", opts.Hysteresis)
	}
	if opts.MaxGrowPerInterval == 0 {
		opts.MaxGrowPerInterval = 64
	}
	if opts.MaxGrowPerInterval < 1 {
		return nil, fmt.Errorf("core: max grow %d < 1", opts.MaxGrowPerInterval)
	}
	return &Heuristic{opts: opts}, nil
}

// MustHeuristic is NewHeuristic that panics on error.
func MustHeuristic(opts Options) *Heuristic {
	h, err := NewHeuristic(opts)
	if err != nil {
		panic(err)
	}
	return h
}

// Name implements sim.Scheduler.
func (h *Heuristic) Name() string {
	name := h.opts.Strategy.String()
	if !h.opts.Adaptive {
		name += "-static"
	}
	if !h.opts.Dynamic {
		name += "-nodyn"
	}
	return name
}

// margin is the headroom above OmegaHat the adaptive controller targets.
const margin = 0.05

// targetOmega returns the throughput level the controller provisions for:
// the constraint plus margin, boosted while the period average has slipped
// below the constraint so the average is pulled back up.
func (h *Heuristic) targetOmega(meanOmega float64) float64 {
	t := h.opts.Objective.OmegaHat + margin
	if meanOmega < h.opts.Objective.OmegaHat {
		t += 2 * (h.opts.Objective.OmegaHat - meanOmega)
	}
	if t > 1 {
		t = 1
	}
	return t
}

// Deploy implements Alg. 1.
func (h *Heuristic) Deploy(v *sim.View, act sim.Control) error {
	g := v.Graph()
	routing := v.Routing()
	sel := dataflow.DefaultSelection(g)
	if h.opts.Dynamic {
		var err error
		sel, err = SelectAlternates(g, routing, h.opts.Strategy)
		if err != nil {
			return err
		}
	}
	for pe, alt := range sel {
		if err := act.SelectAlternate(pe, alt); err != nil {
			return err
		}
	}
	// Alg. 1 allocates "until the throughput constraint is met": the
	// deployment targets OmegaHat itself, assuming rated VM performance and
	// the estimated rates. Adaptive variants add their margin at runtime;
	// static variants live (or die) with this estimate, which is exactly
	// the fragility Figs. 4-5 demonstrate.
	// Deployment always plans on-demand: the base allocation carries the
	// constraint and must not vanish with a spot reclamation.
	plan, err := PlanAllocation(g, v.Menu().OnDemand(), sel, routing, v.EstimatedInputRates(), h.opts.Objective.OmegaHat, h.opts.Strategy)
	if err != nil {
		return err
	}
	return plan.Materialize(act)
}

// Adapt implements Alg. 2: the alternate-selection stage every
// AlternatePeriod intervals and the resource stage every interval, never in
// the same tick ordering ambiguity — alternates first, then resources see
// the new selection.
func (h *Heuristic) Adapt(v *sim.View, act sim.Control) error {
	if !h.opts.Adaptive {
		return nil
	}
	h.ticks++
	if h.opts.Dynamic && h.ticks%h.opts.AlternatePeriod == 0 {
		if err := h.pathStage(v, act); err != nil {
			return err
		}
		if err := h.alternateStage(v, act); err != nil {
			return err
		}
	}
	return h.resourceStage(v, act)
}

// demandECU estimates each PE's required rated capacity (standard cores).
// The global strategy propagates monitored external input rates through the
// whole graph; the local strategy trusts only each PE's own observed
// arrivals — which underestimates true demand when an upstream PE is
// throttled, the exact cascading weakness §7.2 attributes to local
// decisions. The result is scratch: valid until the next demandECU call.
func (h *Heuristic) demandECU(v *sim.View, sel dataflow.Selection) ([]float64, error) {
	s := &h.scratch
	g := v.Graph()
	s.demand = resize(s.demand, g.N())
	demand := s.demand
	s.rates = v.EstimatedInputRatesInto(s.rates)
	if h.opts.Strategy == Global {
		if err := s.flow.Prepare(g, sel, v.Routing(), s.rates); err != nil {
			return nil, err
		}
		inRate := s.flow.InRates()
		for pe := range demand {
			demand[pe] = inRate[pe] * sel.Alt(g, pe).Cost
		}
		return demand, nil
	}
	for pe := range demand {
		arr := v.ObservedArrivalRate(pe)
		if r, ok := s.rates[pe]; ok && r > arr {
			arr = r // input PEs know their external rate directly
		}
		demand[pe] = arr * sel.Alt(g, pe).Cost
	}
	return demand, nil
}

// effectiveECU returns each PE's allocated capacity in standard cores,
// scaled by the monitored per-VM CPU coefficients. The result is scratch:
// valid until the next effectiveECU call.
func (h *Heuristic) effectiveECU(v *sim.View) []float64 {
	s := &h.scratch
	n := v.Graph().N()
	s.eff = resize(s.eff, n)
	clear(s.eff)
	for pe := 0; pe < n; pe++ {
		s.asg = v.AssignmentsInto(pe, s.asg[:0])
		for _, a := range s.asg {
			vm, ok := v.VM(a.VMID)
			if !ok {
				continue
			}
			s.eff[pe] += float64(a.Cores) * vm.Class.CoreSpeed * vm.CPUCoeff
		}
	}
	return s.eff
}

// altCandidate is one feasible alternate in alternateStage's ranking.
type altCandidate struct {
	idx   int
	need  float64 // ECU this alternate requires at the arrival rate
	ratio float64 // value / strategy cost
}

// alternateStage is Alg. 2's ALTERNATE_REDEPLOY: build the feasible set per
// PE from the throughput band, rank by value/cost (strategy-dependent
// cost), and switch to the first alternate that fits the PE's currently
// available resources.
func (h *Heuristic) alternateStage(v *sim.View, act sim.Control) error {
	s := &h.scratch
	g := v.Graph()
	obj := h.opts.Objective
	omega := v.MeanOmega()
	under := omega <= obj.OmegaHat-obj.Epsilon
	over := omega >= obj.OmegaHat+obj.Epsilon
	if !under && !over {
		return nil
	}
	sink := decisionSink(act)
	s.sel = v.SelectionInto(s.sel[:0])
	sel := s.sel
	demand, err := h.demandECU(v, sel)
	if err != nil {
		return err
	}
	available := h.effectiveECU(v)
	if h.opts.Strategy == Global {
		s.costs, err = dataflow.DownstreamCostsRoutedInto(g, sel, v.Routing(), s.costs)
		if err != nil {
			return err
		}
	}
	for pe := 0; pe < g.N(); pe++ {
		alts := g.PEs[pe].Alternates
		if len(alts) < 2 {
			continue
		}
		active := sel[pe]
		activeCost := alts[active].Cost
		// Arrival rate implied by the demand estimate.
		arrival := 0.0
		if activeCost > 0 {
			arrival = demand[pe] / activeCost
		}
		feasible := s.cands[:0]
		for j, a := range alts {
			if j == active {
				continue
			}
			need := arrival * a.Cost
			if under && a.Cost > activeCost {
				continue // need cheaper processing
			}
			if over && a.Cost < activeCost {
				continue // room to buy value back
			}
			cost := a.Cost
			if h.opts.Strategy == Global {
				cost = s.costs[pe][j]
			}
			feasible = append(feasible, altCandidate{idx: j, need: need, ratio: a.Value / cost})
		}
		s.cands = feasible
		if len(feasible) == 0 {
			continue
		}
		// Highest value/cost first; ties keep alternate order.
		slices.SortStableFunc(feasible, func(a, b altCandidate) int {
			switch {
			case a.ratio > b.ratio:
				return -1
			case b.ratio > a.ratio:
				return 1
			}
			return 0
		})
		chosen := -1
		for _, c := range feasible {
			if c.need <= available[pe]+1e-9 {
				chosen = c.idx
				break
			}
		}
		lightest := chosen < 0 && under
		if lightest {
			// Nothing fits the degraded capacity: take the lightest
			// alternate to relieve pressure fastest.
			best := feasible[0]
			for _, c := range feasible[1:] {
				if c.need < best.need {
					best = c
				}
			}
			chosen = best.idx
		}
		if chosen >= 0 && chosen != active {
			if err := act.SelectAlternate(pe, chosen); err != nil {
				return err
			}
			sel[pe] = chosen
			if sink != nil {
				dec := obs.Decision{
					Kind: "alternate", PE: pe,
					Chosen: fmt.Sprintf("select-alternate %s", alts[chosen].Name),
					Inputs: map[string]float64{
						"meanOmega":    omega,
						"omegaHat":     obj.OmegaHat,
						"epsilon":      obj.Epsilon,
						"arrivalRate":  arrival,
						"availableEcu": available[pe],
					},
				}
				if lightest {
					dec.Reason = "no feasible alternate fits the degraded capacity; lightest taken to relieve pressure"
				} else if under {
					dec.Reason = "period omega under the constraint band; cheaper processing"
				} else {
					dec.Reason = "period omega above the constraint band; buy value back"
				}
				seenChosen := false
				for _, c := range feasible {
					opt := obs.DecisionOption{Name: alts[c.idx].Name, Score: c.ratio}
					switch {
					case c.idx == chosen:
						seenChosen = true
					case !seenChosen:
						opt.Rejected = fmt.Sprintf("needs %.2f ECU, only %.2f available", c.need, available[pe])
					default:
						opt.Rejected = "lower value/cost rank"
					}
					dec.Options = append(dec.Options, opt)
				}
				sink.Decide(dec)
			}
		}
	}
	return nil
}
