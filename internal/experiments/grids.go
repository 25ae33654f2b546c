package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
)

// This file expresses the evaluation as scenarios: one §8 base document,
// and merge patches that select a rate, a variability and a policy. The
// figures (Figs. 4-8) are sweep grids over those patches, run on the
// campaign engine that dfbench -sweep and cmd/dfserve also use; the
// extension studies resolve their scenario from the same pieces and lower
// it.

// baseDoc returns the §8 evaluation scenario as a document, with patches
// merged in order, as a grid job's axis values are merged into its spec's
// base: the evaluation dataflow on an ideal cloud, run by the global
// heuristic with the config's horizon, interval and seed. The run is under
// the strict invariant checker, so a conservation bug in the engine fails
// it instead of skewing a figure.
func (c Config) baseDoc(patches ...json.RawMessage) (json.RawMessage, error) {
	gs, choices := scenario.FromGraph(dataflow.EvalGraph())
	doc, err := json.Marshal(&scenario.Scenario{
		Graph:        gs,
		Choices:      choices,
		Rate:         scenario.RateSpec{Kind: "constant"},
		Infra:        scenario.InfraSpec{Kind: "ideal"},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: float64(c.HorizonSec) / 3600,
		IntervalSec:  c.IntervalSec,
		Seed:         c.Seed,
		Check:        &scenario.CheckSpec{Enabled: true, Strict: true},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: eval base: %w", err)
	}
	for _, p := range patches {
		if doc, err = sweep.MergePatch(doc, p); err != nil {
			return nil, fmt.Errorf("experiments: eval base: %w", err)
		}
	}
	return doc, nil
}

// evalScenario resolves one run of the evaluation: the base document with
// patches merged in order, parsed strictly, as a grid job is resolved.
func (c Config) evalScenario(patches ...json.RawMessage) (*scenario.Scenario, error) {
	doc, err := c.baseDoc(patches...)
	if err != nil {
		return nil, err
	}
	return scenario.ParseBytes(doc)
}

// patch formats a merge patch from a JSON literal.
func patch(doc string) json.RawMessage { return json.RawMessage(doc) }

// rate sets the mean input rate and seeds the random walk a data-varying
// profile adds, so each rate of a sweep walks its own path.
func (c Config) rate(mean float64) json.RawMessage {
	return patch(fmt.Sprintf(`{"rate": {"mean": %g, "seed": %d}}`, mean, c.Seed+int64(mean*100)))
}

// variability returns the patch that enables one of the §8 dynamism
// scenarios: none, data (the wave+walk input), infra (replayed performance
// traces) or both. An unknown name gets a nil patch, which changes nothing.
func (c Config) variability(name string) json.RawMessage {
	data := `"rate": {"kind": "wavewalk"}`
	infra := fmt.Sprintf(`"infra": {"kind": "replayed", "seed": %d}`, c.Seed)
	return map[string]json.RawMessage{
		"none":  patch(`{}`),
		"data":  patch("{" + data + "}"),
		"infra": patch("{" + infra + "}"),
		"both":  patch("{" + data + ", " + infra + "}"),
	}[name]
}

// policies selects each policy of the evaluation, keyed by its scheduler's
// Name().
var policies = map[string]json.RawMessage{
	"bruteforce-static": patch(`{"policy": {"kind": "bruteforce"}}`),
	"local-static":      patch(`{"policy": {"kind": "local", "static": true}}`),
	"global-static":     patch(`{"policy": {"kind": "global", "static": true}}`),
	"local":             patch(`{"policy": {"kind": "local"}}`),
	"global":            patch(`{"policy": {"kind": "global"}}`),
	"local-nodyn":       patch(`{"policy": {"kind": "local", "dynamic": false}}`),
	"global-nodyn":      patch(`{"policy": {"kind": "global", "dynamic": false}}`),
}

// policyAxis sweeps the named policies.
func policyAxis(names ...string) sweep.Axis {
	ax := sweep.Axis{Name: "policy"}
	for _, name := range names {
		ax.Values = append(ax.Values, sweep.AxisValue{Label: name, Patch: policies[name]})
	}
	return ax
}

// varAxis sweeps the named variabilities.
func (c Config) varAxis(names ...string) sweep.Axis {
	ax := sweep.Axis{Name: "var"}
	for _, name := range names {
		ax.Values = append(ax.Values, sweep.AxisValue{Label: name, Patch: c.variability(name)})
	}
	return ax
}

// rateAxis sweeps the config's data-rate ladder.
func (c Config) rateAxis() sweep.Axis {
	ax := sweep.Axis{Name: "rate"}
	for _, r := range c.Rates {
		ax.Values = append(ax.Values, sweep.AxisValue{Label: fmt.Sprintf("%g", r), Patch: c.rate(r)})
	}
	return ax
}

// seedLadder derives n replica seeds from the config seed.
func seedLadder(base int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// figureGrid assembles a figure's grid. A figure grid sweeps its policies
// on its first axis; runGrid relies on that to put the rows in the
// figure's order.
func (c Config) figureGrid(name string, base json.RawMessage, replicas int, policy sweep.Axis, axes ...sweep.Axis) *sweep.Spec {
	return &sweep.Spec{
		Name:  name,
		Base:  base,
		Axes:  append([]sweep.Axis{policy}, axes...),
		Seeds: seedLadder(c.Seed, replicas),
	}
}

// GridFig4 is Fig. 4: the static policies under each variability at
// 5 msg/s.
func GridFig4(c Config, replicas int) (*sweep.Spec, error) {
	base, err := c.baseDoc(c.rate(5))
	if err != nil {
		return nil, err
	}
	return c.figureGrid("fig4-static-vs-variability", base, replicas,
		policyAxis("bruteforce-static", "local-static", "global-static"),
		c.varAxis("none", "data", "infra", "both")), nil
}

// GridFig5 is Fig. 5: the static policies across the data-rate sweep on an
// ideal cloud.
func GridFig5(c Config, replicas int) (*sweep.Spec, error) {
	base, err := c.baseDoc()
	if err != nil {
		return nil, err
	}
	return c.figureGrid("fig5-static-vs-rate", base, replicas,
		policyAxis("bruteforce-static", "local-static", "global-static"),
		c.rateAxis()), nil
}

// GridAdaptive is Figs. 6-7 as one campaign: the local and global adaptive
// heuristics under infrastructure variability (Fig. 6) and data
// variability (Fig. 7), across the rate sweep.
func GridAdaptive(c Config, replicas int) (*sweep.Spec, error) {
	return c.adaptiveGrid(replicas, "infra", "data")
}

// adaptiveGrid is the Figs. 6-7 grid over the named variabilities.
func (c Config) adaptiveGrid(replicas int, variabilities ...string) (*sweep.Spec, error) {
	base, err := c.baseDoc()
	if err != nil {
		return nil, err
	}
	return c.figureGrid("fig67-adaptive", base, replicas,
		policyAxis("local", "global"),
		c.varAxis(variabilities...), c.rateAxis()), nil
}

// GridFig8 is Fig. 8: the adaptive heuristics with and without dynamism
// across the rate sweep, with both variabilities.
func GridFig8(c Config, replicas int) (*sweep.Spec, error) {
	base, err := c.baseDoc(c.variability("both"))
	if err != nil {
		return nil, err
	}
	return c.figureGrid("fig8-cost", base, replicas,
		policyAxis("global", "global-nodyn", "local", "local-nodyn"),
		c.rateAxis()), nil
}

// GridFaults is the chaoscloud fault matrix as a campaign: the global
// policy, bare and wrapped in the resilient middleware, against escalating
// control-plane fault profiles on a variable cloud at 10 msg/s. Its walk
// keeps seed 0, not the figures' per-rate seed, so the campaign's job keys
// and journaled results stay valid.
func GridFaults(c Config, replicas int) (*sweep.Spec, error) {
	base, err := c.baseDoc(c.variability("both"), patch(`{"rate": {"mean": 10}}`))
	if err != nil {
		return nil, err
	}
	return &sweep.Spec{
		Name: "chaoscloud-fault-matrix",
		Base: base,
		Axes: []sweep.Axis{
			{Name: "policy", Values: []sweep.AxisValue{
				{Label: "global", Patch: patch(`{"policy": {"kind": "global"}}`)},
				{Label: "global-resilient", Patch: patch(`{"policy": {"kind": "global", "resilient": true, "degradeOmega": 0.5}}`)},
			}},
			{Name: "faults", Values: []sweep.AxisValue{
				{Label: "none", Patch: patch(`{}`)},
				{Label: "boot", Patch: patch(`{"control": {"meanBootSec": 120}}`)},
				{Label: "capacity", Patch: patch(`{"control": {"acquireFailProb": 0.2, "burstEverySec": 3600, "faultFreeSec": 600}}`)},
				{Label: "monitor", Patch: patch(`{"control": {"monitorStaleProb": 0.3, "monitorNoiseFrac": 0.2}}`)},
				{Label: "all", Patch: patch(`{"control": {"meanBootSec": 120, "acquireFailProb": 0.2, "burstEverySec": 3600, "faultFreeSec": 600, "monitorStaleProb": 0.3, "monitorNoiseFrac": 0.2}}`)},
			}},
		},
		Seeds: seedLadder(c.Seed, replicas),
	}, nil
}

// fairTenants builds the fairness grid's two-tenant block: "front" (the
// user-facing dataflow, optionally prioritized) and "batch" (a throughput
// workload at the same rate). Ω floors are left zero so each tenant's floor
// follows its objective OmegaHat — which the grid's floor axis sweeps via
// the scenario-level override.
func fairTenants(frontPriority int) []scenario.TenantSpec {
	gs, _ := scenario.FromGraph(dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.2, 1)).
		AddPE("work",
			dataflow.Alt("full", 1, 1.0, 1),
			dataflow.Alt("lite", 0.8, 0.5, 1)).
		Connect("src", "work").
		MustBuild())
	return []scenario.TenantSpec{
		{Name: "front", Graph: gs, Rate: scenario.RateSpec{Kind: "constant", Mean: 8}, Priority: frontPriority},
		{Name: "batch", Graph: gs, Rate: scenario.RateSpec{Kind: "constant", Mean: 8}},
	}
}

// GridFairness probes the multi-tenant arbiter: priority (flat vs tiered)
// x Ω floor (lax vs strict, via the scenario-level OmegaHat override every
// tenant's floor defaults to) x fleet scarcity (ample vs scarce MaxVMs).
// Merge patches replace arrays wholesale (RFC 7386), so the priority axis
// carries the complete tenants array; the other axes stay scalar.
func GridFairness(c Config, replicas int) (*sweep.Spec, error) {
	base := scenario.Scenario{
		Tenants:      fairTenants(0),
		Infra:        scenario.InfraSpec{Kind: "ideal"},
		HorizonHours: float64(c.HorizonSec) / 3600,
		IntervalSec:  c.IntervalSec,
		Seed:         c.Seed,
		MaxVMs:       12,
		Check:        &scenario.CheckSpec{Enabled: true, Strict: true},
	}
	baseDoc, err := json.Marshal(&base)
	if err != nil {
		return nil, fmt.Errorf("experiments: fairness base: %w", err)
	}
	priorityPatch := func(p int) (json.RawMessage, error) {
		return json.Marshal(map[string][]scenario.TenantSpec{"tenants": fairTenants(p)})
	}
	flat, err := priorityPatch(0)
	if err != nil {
		return nil, err
	}
	tiered, err := priorityPatch(2)
	if err != nil {
		return nil, err
	}
	return &sweep.Spec{
		Name: "fairness-arbitration",
		Base: baseDoc,
		Axes: []sweep.Axis{
			{Name: "priority", Values: []sweep.AxisValue{
				{Label: "flat", Patch: flat},
				{Label: "tiered", Patch: tiered},
			}},
			{Name: "floor", Values: []sweep.AxisValue{
				{Label: "lax", Patch: patch(`{"omegaHat": 0.6}`)},
				{Label: "strict", Patch: patch(`{"omegaHat": 0.85}`)},
			}},
			{Name: "fleet", Values: []sweep.AxisValue{
				{Label: "ample", Patch: patch(`{"maxVMs": 12}`)},
				{Label: "scarce", Patch: patch(`{"maxVMs": 5}`)},
			}},
		},
		Seeds: seedLadder(c.Seed, replicas),
	}, nil
}

// namedGrids maps the -sweep names to their builders.
var namedGrids = map[string]func(Config, int) (*sweep.Spec, error){
	"fig4":     GridFig4,
	"fig5":     GridFig5,
	"fig67":    GridAdaptive,
	"fig8":     GridFig8,
	"faults":   GridFaults,
	"fairness": GridFairness,
}

// GridNames lists the named grids, sorted.
func GridNames() []string {
	out := make([]string, 0, len(namedGrids))
	for name := range namedGrids {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NamedGrid resolves a grid by name with the given replica count.
func NamedGrid(name string, c Config, replicas int) (*sweep.Spec, error) {
	build, ok := namedGrids[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown grid %q (have %s)",
			name, strings.Join(GridNames(), ", "))
	}
	if replicas < 1 {
		replicas = 1
	}
	return build(c, replicas)
}
