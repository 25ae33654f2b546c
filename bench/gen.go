package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
	"dynamicdf/internal/workload"
)

// size scales one batch of a workload: the simulated horizon of each run or
// job, the replicas per grid cell of a campaign, the tenant count, and the
// layered graph (width, depth, alternates) of the single-run workloads.
type size struct {
	hours    float64
	replicas int
	tenants  int
	graph    [3]int
}

// seedStream derives the sub-seeds of one generated document from the
// benchmark seed. Sub-seeds are positive and never 0, because several
// generators treat a 0 seed as "fall back to a default".
func seedStream(seed int64) func() int64 {
	r := rand.New(rand.NewSource(seed))
	return func() int64 { return 1 + r.Int63n(1<<40) }
}

// paperGridSpec is the paper's Figs. 6-8 evaluation as one sweep spec: the
// §8 evaluation dataflow under both heuristics, with and without dynamism,
// under infrastructure, data or both kinds of variability, across the rate
// ladder. Replicas are an axis rather than the spec's seed list because the
// seed list patches only the top-level seed; each replica here draws its own
// rate and infra seeds, so data-variability replicas are distinct runs.
func paperGridSpec(seed int64, sz size) ([]byte, error) {
	next := seedStream(seed)
	gs, choices := scenario.FromGraph(dataflow.EvalGraph())
	base := scenario.Scenario{
		Graph:        gs,
		Choices:      choices,
		Rate:         scenario.RateSpec{Kind: "constant", Mean: 2},
		Infra:        scenario.InfraSpec{Kind: "ideal"},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: sz.hours,
		IntervalSec:  60,
		Seed:         next(),
		Check:        &scenario.CheckSpec{Enabled: true, Strict: true},
	}
	return marshalSpec("paper-grid", base, nil, []sweep.Axis{
		axis("policy", "local", `{"policy":{"kind":"local"}}`, "global", `{"policy":{"kind":"global"}}`),
		axis("dynamism", "dyn", `{"policy":{"dynamic":true}}`, "nodyn", `{"policy":{"dynamic":false}}`),
		axis("var",
			"infra", `{"infra":{"kind":"replayed"}}`,
			"data", `{"rate":{"kind":"wavewalk"}}`,
			"both", `{"infra":{"kind":"replayed"},"rate":{"kind":"wavewalk"}}`),
		rateAxis(2, 5, 10, 20, 35, 50),
		replicaAxis(next, sz.replicas, false),
	})
}

// faultMatrixSpec is the chaoscloud fault matrix with a warm fault axis:
// acquisition faults start only after a fault-free first half, so the jobs
// of one (policy, rate, replica) cell fork a shared checkpointed prefix.
func faultMatrixSpec(seed int64, sz size) ([]byte, error) {
	next := seedStream(seed)
	prefixSec := int64(sz.hours*3600/2) / 60 * 60
	gs, choices := scenario.FromGraph(dataflow.EvalGraph())
	base := scenario.Scenario{
		Graph:        gs,
		Choices:      choices,
		Rate:         scenario.RateSpec{Kind: "wavewalk", Mean: 10},
		Infra:        scenario.InfraSpec{Kind: "replayed"},
		Policy:       scenario.PolicySpec{Kind: "global"},
		Control:      scenario.ControlSpec{FaultFreeSec: prefixSec},
		HorizonHours: sz.hours,
		IntervalSec:  60,
		Seed:         next(),
		Check:        &scenario.CheckSpec{Enabled: true, Strict: true},
	}
	faults := axis("faults",
		"none", `{}`,
		"p0.2", `{"control":{"acquireFailProb":0.2}}`,
		"burst", `{"control":{"acquireFailProb":0.2,"burstEverySec":3600,"burstLenSec":600}}`,
		"p0.4", `{"control":{"acquireFailProb":0.4}}`)
	faults.Warm = true
	return marshalSpec("fault-matrix", base, &sweep.WarmStartSpec{PrefixSec: prefixSec}, []sweep.Axis{
		axis("policy",
			"global", `{"policy":{"kind":"global"}}`,
			"global-resilient", `{"policy":{"kind":"global","resilient":true,"degradeOmega":0.5}}`),
		rateAxis(5, 20),
		replicaAxis(next, sz.replicas, true),
		faults,
	})
}

// scaleAdaptScenario is one run of a layered graph (at full size the
// paper's scale ceiling, 34 PEs with 10 alternates each) driven into the
// hundreds of VMs. The input is a periodic wave, not a random walk: under a
// walk the fleet size, and with it the cost of a run, varied by a seventh
// from seed to seed. The seed draws the infrastructure traces.
func scaleAdaptScenario(seed int64, sz size) ([]byte, error) {
	next := seedStream(seed)
	gs, choices := scenario.FromGraph(dataflow.LayeredGraph(sz.graph[0], sz.graph[1], sz.graph[2]))
	return json.Marshal(scenario.Scenario{
		Graph:        gs,
		Choices:      choices,
		Rate:         scenario.RateSpec{Kind: "wave", Mean: 150, Amplitude: 60, PeriodSec: 1800},
		Infra:        scenario.InfraSpec{Kind: "replayed", Seed: next()},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: sz.hours,
		IntervalSec:  60,
		Seed:         next(),
		MaxVMs:       2048,
	})
}

// tenantsScenario is a fleet shared by many small session-driven dataflows
// under a VM cap below their joint demand, so the fair-share arbiter rules
// on scale-ups. The tenant mix is fixed; the seed draws every session path.
func tenantsScenario(seed int64, sz size) ([]byte, error) {
	next := seedStream(seed)
	gs, choices := scenario.FromGraph(dataflow.LayeredGraph(sz.graph[0], sz.graph[1], sz.graph[2]))
	tenants := make([]scenario.TenantSpec, sz.tenants)
	for i := range tenants {
		tenants[i] = scenario.TenantSpec{
			Name:       fmt.Sprintf("t%02d", i),
			Graph:      gs,
			Choices:    choices,
			Rate:       scenario.RateSpec{Kind: "sessions", Seed: next(), Sessions: sessionMix(i, next(), sz.hours)},
			OmegaFloor: 0.6 + 0.05*float64(i%3),
			Priority:   i % 3,
		}
	}
	return json.Marshal(scenario.Scenario{
		Tenants:      tenants,
		Infra:        scenario.InfraSpec{Kind: "replayed", Seed: next()},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: sz.hours,
		IntervalSec:  60,
		Seed:         next(),
		MaxVMs:       400,
	})
}

// sessionMix gives tenant i one of four session models, each averaging about
// 30 concurrent sessions of 0.15 msg/s: an open population with a diurnal
// cycle as long as the run, a closed population, MMPP bursts, and flash
// crowds. Bursts and crowds are frequent and mild, so that a run's load
// does not hinge on whether one rare event happens.
func sessionMix(i int, seed int64, hours float64) *workload.Spec {
	s := &workload.Spec{MeanSessionSec: 600, MsgPerSessionSec: 0.15, Seed: seed}
	switch i % 4 {
	case 0:
		s.Model, s.ArrivalPerSec, s.Diurnal = workload.Open, 0.05, 0.5
		s.DiurnalPeriodSec = int64(hours * 3600)
	case 1:
		s.Model, s.Population, s.ThinkSec = workload.Closed, 60, 600
	case 2:
		s.Model, s.ArrivalPerSec, s.BurstFactor = workload.Open, 0.036, 3
		s.CalmResidencySec, s.BurstResidencySec = 1200, 300
	case 3:
		s.Model, s.ArrivalPerSec = workload.Open, 0.05
		s.FlashProb, s.FlashFactor, s.FlashSec = 0.01, 2, 300
	}
	return s
}

func marshalSpec(name string, base scenario.Scenario, warm *sweep.WarmStartSpec, axes []sweep.Axis) ([]byte, error) {
	doc, err := json.Marshal(base)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sweep.Spec{Name: name, Base: doc, Axes: axes, Seeds: []int64{base.Seed}, WarmStart: warm})
}

// axis builds an axis from alternating label, patch arguments.
func axis(name string, labelPatch ...string) sweep.Axis {
	ax := sweep.Axis{Name: name}
	for i := 0; i+1 < len(labelPatch); i += 2 {
		ax.Values = append(ax.Values, sweep.AxisValue{Label: labelPatch[i], Patch: json.RawMessage(labelPatch[i+1])})
	}
	return ax
}

func rateAxis(means ...float64) sweep.Axis {
	ax := sweep.Axis{Name: "rate"}
	for _, m := range means {
		ax.Values = append(ax.Values, sweep.AxisValue{
			Label: fmt.Sprintf("%g", m),
			Patch: json.RawMessage(fmt.Sprintf(`{"rate":{"mean":%g}}`, m)),
		})
	}
	return ax
}

// replicaAxis gives each replica its own rate and infra seeds, and with
// control set its own control-fault seed.
func replicaAxis(next func() int64, n int, control bool) sweep.Axis {
	ax := sweep.Axis{Name: "replica"}
	for i := 0; i < n; i++ {
		patch := fmt.Sprintf(`{"rate":{"seed":%d},"infra":{"seed":%d}`, next(), next())
		if control {
			patch += fmt.Sprintf(`,"control":{"seed":%d}`, next())
		}
		ax.Values = append(ax.Values, sweep.AxisValue{
			Label: fmt.Sprintf("r%02d", i),
			Patch: json.RawMessage(patch + "}"),
		})
	}
	return ax
}
