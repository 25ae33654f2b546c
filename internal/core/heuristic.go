package core

import (
	"fmt"
	"sort"

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
	// runs (Alg. 2 runs the two stages at different cadences). Default 5.
	AlternatePeriod int
	// ResourcePeriod is how many intervals between resource-redeployment
	// runs. Default 1.
	ResourcePeriod int
	// Margin is the headroom above OmegaHat the controller targets.
	// Default 0.05.
	Margin float64
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
	if opts.ResourcePeriod == 0 {
		opts.ResourcePeriod = 1
	}
	if opts.AlternatePeriod < 1 || opts.ResourcePeriod < 1 {
		return nil, fmt.Errorf("core: stage periods must be >= 1 (got %d, %d)", opts.AlternatePeriod, opts.ResourcePeriod)
	}
	if opts.Margin == 0 {
		opts.Margin = 0.05
	}
	if opts.Margin < 0 || opts.Margin > 1-opts.Objective.OmegaHat+0.3 {
		return nil, fmt.Errorf("core: margin %v out of range", opts.Margin)
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

// targetOmega returns the throughput level the controller provisions for:
// the constraint plus margin, boosted while the period average has slipped
// below the constraint so the average is pulled back up.
func (h *Heuristic) targetOmega(meanOmega float64) float64 {
	t := h.opts.Objective.OmegaHat + h.opts.Margin
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
	sel := dataflow.DefaultSelection(g)
	if h.opts.Dynamic {
		var err error
		sel, err = SelectAlternates(g, h.opts.Strategy)
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
	plan, err := PlanAllocation(g, v.Menu().OnDemand(), sel, v.Routing(), v.EstimatedInputRates(), h.opts.Objective.OmegaHat, h.opts.Strategy)
	if err != nil {
		return err
	}
	return plan.Materialize(act)
}

// Adapt implements Alg. 2: the alternate-selection stage every
// AlternatePeriod intervals and the resource stage every ResourcePeriod
// intervals, never in the same tick ordering ambiguity — alternates first,
// then resources see the new selection.
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
	if h.ticks%h.opts.ResourcePeriod == 0 {
		if err := h.resourceStage(v, act); err != nil {
			return err
		}
	}
	return nil
}

// demandECU estimates each PE's required rated capacity (standard cores).
// The global strategy propagates monitored external input rates through the
// whole graph; the local strategy trusts only each PE's own observed
// arrivals — which underestimates true demand when an upstream PE is
// throttled, the exact cascading weakness §7.2 attributes to local
// decisions.
func (h *Heuristic) demandECU(v *sim.View, sel dataflow.Selection) ([]float64, error) {
	g := v.Graph()
	demand := make([]float64, g.N())
	if h.opts.Strategy == Global {
		inRate, _, err := dataflow.PropagateRatesRouted(g, sel, v.Routing(), v.EstimatedInputRates())
		if err != nil {
			return nil, err
		}
		for pe := range demand {
			demand[pe] = inRate[pe] * sel.Alt(g, pe).Cost
		}
		return demand, nil
	}
	est := v.EstimatedInputRates()
	for pe := range demand {
		arr := v.ObservedArrivalRate(pe)
		if r, ok := est[pe]; ok && r > arr {
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

// alternateStage is Alg. 2's ALTERNATE_REDEPLOY: build the feasible set per
// PE from the throughput band, rank by value/cost (strategy-dependent
// cost), and switch to the first alternate that fits the PE's currently
// available resources.
func (h *Heuristic) alternateStage(v *sim.View, act sim.Control) error {
	g := v.Graph()
	sel := v.Selection()
	obj := h.opts.Objective
	omega := v.MeanOmega()
	under := omega <= obj.OmegaHat-obj.Epsilon
	over := omega >= obj.OmegaHat+obj.Epsilon
	if !under && !over {
		return nil
	}
	sink := decisionSink(act)
	demand, err := h.demandECU(v, sel)
	if err != nil {
		return err
	}
	available := h.effectiveECU(v)
	var downCosts [][]float64
	if h.opts.Strategy == Global {
		downCosts, err = dataflow.DownstreamCostsRouted(g, sel, v.Routing())
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
		type cand struct {
			idx   int
			need  float64 // ECU this alternate requires at the arrival rate
			ratio float64 // value / strategy cost
		}
		var feasible []cand
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
				cost = downCosts[pe][j]
			}
			feasible = append(feasible, cand{idx: j, need: need, ratio: a.Value / cost})
		}
		if len(feasible) == 0 {
			continue
		}
		sort.SliceStable(feasible, func(i, j int) bool { return feasible[i].ratio > feasible[j].ratio })
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
