package scenario

import (
	"fmt"

	"dynamicdf/internal/core"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/resilient"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
	"dynamicdf/internal/workload"
)

// TenantSpec declares one tenant of a multi-tenant scenario: its own
// dataflow (graph + choices), input rate, Ω floor and priority. Tenants are
// lowered in declaration order onto one composite graph and one shared
// fleet; each tenant's PEs occupy a contiguous index range and are
// namespaced "<name>/<pe>".
type TenantSpec struct {
	Name    string       `json:"name"`
	Graph   GraphSpec    `json:"graph"`
	Choices []ChoiceSpec `json:"choices,omitempty"`
	Rate    RateSpec     `json:"rate"`
	// OmegaFloor is the tenant's guaranteed relative-throughput floor the
	// fairness arbiter defends under scarcity. 0 defaults to the tenant's
	// own objective OmegaHat.
	OmegaFloor float64 `json:"omegaFloor,omitempty"`
	// Priority ranks tenants when scarce capacity must be arbitrated among
	// the starving (higher wins; equal priorities tie-break by declaration
	// order).
	Priority int `json:"priority,omitempty"`
	// InputWeights fan the tenant's rate profile across its input PEs in
	// graph order (uniform split when omitted).
	InputWeights []float64 `json:"inputWeights,omitempty"`
	// Policy overrides the scenario-level policy block for this tenant.
	Policy *PolicySpec `json:"policy,omitempty"`
}

// lowerTenants is Lower for scenarios with a tenants block: every tenant's
// graph is lowered onto one composite dataflow, its rate fanned across its
// input PEs, its own Θ objective calibrated, and one core.MultiTenant
// scheduler arbitrates the per-tenant heuristics over the shared fleet.
func (sc *Scenario) lowerTenants(pools *trace.Pools) (*Built, error) {
	hours := sc.HorizonHours
	if hours == 0 {
		hours = 4
	}
	interval := sc.IntervalSec
	if interval == 0 {
		interval = 60
	}

	comp := dataflow.NewBuilder()
	tenants := make([]sim.Tenant, 0, len(sc.Tenants))
	names := make([]string, 0, len(sc.Tenants))
	objs := make([]core.Objective, 0, len(sc.Tenants))
	inner := make([]sim.Scheduler, 0, len(sc.Tenants))
	inputs := map[int]rates.Profile{}
	meanSum := 0.0
	lo, loCh := 0, 0
	for i, t := range sc.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("scenario: tenant %d has no name", i)
		}
		tg, err := buildGraph(t.Graph, t.Choices)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}
		addGraphSpec(comp, t.Graph, t.Choices, t.Name+"/")

		prof, err := t.Rate.profile(sc.IntervalSec)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}
		meanSum += prof.Mean()

		obj, err := sc.objective(tg, prof.Mean(), hours)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}
		floor := t.OmegaFloor
		if floor == 0 {
			floor = obj.OmegaHat
		}

		ins := tg.Inputs()
		fanned, err := workload.Fan(prof, t.InputWeights, len(ins))
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}
		for k, pe := range ins {
			inputs[lo+pe] = fanned[k]
		}

		ps := sc.Policy
		// Scenario-level resilience wraps the arbitrated policy as a whole,
		// not each inner heuristic.
		ps.Resilient, ps.DegradeOmega = false, 0
		if t.Policy != nil {
			ps = *t.Policy
		}
		policy, err := tenantHeuristic(ps, obj)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %q: %w", t.Name, err)
		}

		tenants = append(tenants, sim.Tenant{
			Name: t.Name, LoPE: lo, HiPE: lo + tg.N(),
			LoChoice: loCh, HiChoice: loCh + len(tg.Choices),
			OmegaFloor: floor, Priority: t.Priority, Graph: tg,
		})
		names = append(names, t.Name)
		objs = append(objs, obj)
		inner = append(inner, policy)
		lo += tg.N()
		loCh += len(tg.Choices)
	}
	g, err := comp.Build()
	if err != nil {
		return nil, fmt.Errorf("scenario: composite graph: %w", err)
	}

	// The global objective spans the composite graph at the summed mean
	// rate; it prices the shared fleet's spend in the run-level Θ.
	obj, err := sc.objective(g, meanSum, hours)
	if err != nil {
		return nil, err
	}

	mt, err := core.NewMultiTenant(inner, core.Arbiter{})
	if err != nil {
		return nil, err
	}
	var sched sim.Scheduler = mt
	if sc.Policy.Resilient {
		sched = resilient.Wrap(mt, resilient.Config{
			Seed: sc.Seed, DegradeOmega: sc.Policy.DegradeOmega})
	}

	perf, err := sc.perf(pools)
	if err != nil {
		return nil, err
	}
	menu, failures, preemption, err := sc.platform()
	if err != nil {
		return nil, err
	}
	checker := sc.Check.checker()
	cfg := sim.Config{
		Graph:         g,
		Menu:          menu,
		Perf:          perf,
		Inputs:        inputs,
		IntervalSec:   interval,
		HorizonSec:    int64(hours * 3600),
		Seed:          sc.Seed,
		MaxVMs:        sc.MaxVMs,
		Failures:      failures,
		Preemption:    preemption,
		ControlFaults: sc.Control.faults(sc.Seed),
		Audit:         sc.Audit,
		OmegaFloor:    obj.OmegaHat,
		Checker:       checker,
		Tenants:       tenants,
	}
	return &Built{
		Scheduler: sched, Objective: obj, Graph: g,
		Checker: checker, Config: cfg,
		TenantNames: names, TenantObjectives: objs,
	}, nil
}

// objective calibrates one Θ objective (PaperSigma at the given graph and
// mean rate) and applies the scenario's overrides.
func (sc *Scenario) objective(g *dataflow.Graph, meanRate, hours float64) (core.Objective, error) {
	obj, err := core.PaperSigma(g, meanRate, hours)
	if err != nil {
		return core.Objective{}, err
	}
	if sc.OmegaHat != 0 {
		obj.OmegaHat = sc.OmegaHat
	}
	if sc.Epsilon != 0 {
		obj.Epsilon = sc.Epsilon
	}
	obj.LatencyHatSec = sc.LatencyHatSec
	if err := obj.Validate(); err != nil {
		return core.Objective{}, err
	}
	return obj, nil
}

// tenantHeuristic builds one tenant's inner policy. Bruteforce plans the
// whole fleet for one dataflow and cannot be arbitrated, so it stays
// single-tenant only; per-tenant resilience is likewise rejected — set the
// scenario-level flag to wrap the arbitrated policy as a whole.
func tenantHeuristic(ps PolicySpec, obj core.Objective) (sim.Scheduler, error) {
	if ps.Resilient {
		return nil, fmt.Errorf("scenario: per-tenant resilient policy unsupported; set the scenario-level policy.resilient")
	}
	dynamic := true
	if ps.Dynamic != nil {
		dynamic = *ps.Dynamic
	}
	switch ps.Kind {
	case "local":
		return core.NewHeuristic(core.Options{
			Strategy: core.Local, Dynamic: dynamic, Adaptive: !ps.Static,
			Objective: obj, UseSpot: ps.UseSpot})
	case "global", "":
		return core.NewHeuristic(core.Options{
			Strategy: core.Global, Dynamic: dynamic, Adaptive: !ps.Static,
			Objective: obj, UseSpot: ps.UseSpot})
	case "bruteforce":
		return nil, fmt.Errorf("scenario: policy kind bruteforce is single-tenant only")
	default:
		return nil, fmt.Errorf("scenario: unknown policy kind %q", ps.Kind)
	}
}
