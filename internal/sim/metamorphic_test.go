package sim_test

// Metamorphic relations: reference-free oracles for the simulator. Each
// relation transforms a scenario in a way whose effect on the output is
// known a priori (double the cost-aversion, scale the input rates, add
// faults that can never fire) and asserts the implication — plus a
// differential replay of one scenario through both paper heuristics. All
// runs execute with the invariant checker in strict mode, so the relations
// and the conservation laws are verified together.

import (
	"bytes"
	"math"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/core"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
)

// deployer is a minimal scheduler for fixed deployments.
type deployer struct {
	name   string
	deploy func(v *sim.View, act sim.Control) error
}

func (d *deployer) Name() string                              { return d.name }
func (d *deployer) Deploy(v *sim.View, act sim.Control) error { return d.deploy(v, act) }
func (d *deployer) Adapt(_ *sim.View, _ sim.Control) error    { return nil }

// evenDeploy assigns n cores of the class to every PE.
func evenDeploy(class string, n int) *deployer {
	return &deployer{name: "even", deploy: func(v *sim.View, act sim.Control) error {
		for pe := 0; pe < v.Graph().N(); pe++ {
			id, err := act.AcquireVM(class)
			if err != nil {
				return err
			}
			if err := act.AssignCores(pe, id, n); err != nil {
				return err
			}
		}
		return nil
	}}
}

// unitChain builds in -> mid -> out with unit selectivity everywhere.
func unitChain() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("in", dataflow.Alt("e", 1, 0.2, 1)).
		AddPE("mid", dataflow.Alt("e", 1, 1.0, 1)).
		AddPE("out", dataflow.Alt("e", 1, 0.3, 1)).
		Connect("in", "mid").Connect("mid", "out").
		MustBuild()
}

// runChecked executes one strict-checked run and returns the summary.
func runChecked(t *testing.T, g *dataflow.Graph, rate float64, horizon int64, s sim.Scheduler) metrics.Summary {
	t.Helper()
	prof, err := rates.NewConstant(rate)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{g.Inputs()[0]: prof},
		HorizonSec: horizon,
		Checker:    invariant.NewStrict(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// heuristic builds the paper's heuristic for the objective.
func heuristic(t *testing.T, strategy core.Strategy, obj core.Objective) sim.Scheduler {
	t.Helper()
	h, err := core.NewHeuristic(core.Options{
		Strategy: strategy, Dynamic: true, Adaptive: true, Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMetamorphicSigmaMonotone: doubling sigma (the objective's cost
// aversion) never increases the cost the heuristic chooses to spend.
func TestMetamorphicSigmaMonotone(t *testing.T) {
	g := dataflow.EvalGraph()
	const rate, hours = 10.0, 2.0
	baseObj, err := core.PaperSigma(g, rate, hours)
	if err != nil {
		t.Fatal(err)
	}
	for _, mult := range []float64{2, 4, 16} {
		obj2 := baseObj
		obj2.Sigma = baseObj.Sigma * mult
		cost1 := runChecked(t, g, rate, int64(hours*3600), heuristic(t, core.Global, baseObj)).TotalCostUSD
		cost2 := runChecked(t, g, rate, int64(hours*3600), heuristic(t, core.Global, obj2)).TotalCostUSD
		if cost2 > cost1+1e-9 {
			t.Fatalf("sigma x%v increased chosen cost: $%v -> $%v", mult, cost1, cost2)
		}
	}
}

// TestMetamorphicRateScaling: with unit selectivity, scaling all input
// rates by k scales delivered throughput by at most k, and with ample
// capacity Omega is invariant (stays 1) while throughput scales exactly.
func TestMetamorphicRateScaling(t *testing.T) {
	g := unitChain()
	const base = 2.0
	cases := []struct {
		name  string
		sched func() sim.Scheduler
		ample bool
	}{
		// One m1.xlarge (8 ECU) per PE covers mid's cost 1 up to 8 msg/s.
		{"ample", func() sim.Scheduler { return evenDeploy("m1.xlarge", 4) }, true},
		// One m1.small core (1 ECU) saturates mid beyond 1 msg/s.
		{"saturated", func() sim.Scheduler { return evenDeploy("m1.small", 1) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := runChecked(t, g, base, 3600, tc.sched())
			for _, k := range []float64{2, 3} {
				scaled := runChecked(t, g, base*k, 3600, tc.sched())
				if tc.ample {
					if math.Abs(scaled.MeanOmega-1) > 1e-9 || math.Abs(ref.MeanOmega-1) > 1e-9 {
						t.Fatalf("k=%v: omega not invariant under ample capacity: %v -> %v",
							k, ref.MeanOmega, scaled.MeanOmega)
					}
				} else {
					if scaled.MeanOmega > ref.MeanOmega+1e-9 {
						t.Fatalf("k=%v: omega rose under scaling with fixed capacity: %v -> %v",
							k, ref.MeanOmega, scaled.MeanOmega)
					}
				}
			}
		})
	}
}

// TestMetamorphicRateScalingThroughput pins the throughput half of the
// relation on the per-interval series: output(k·r) <= k·output(r), with
// equality under ample capacity.
func TestMetamorphicRateScalingThroughput(t *testing.T) {
	g := unitChain()
	const base, k = 2.0, 3.0
	run := func(rate float64, sched sim.Scheduler) float64 {
		prof, err := rates.NewConstant(rate)
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.NewEngine(sim.Config{
			Graph:      g,
			Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
			Inputs:     map[int]rates.Profile{g.Inputs()[0]: prof},
			HorizonSec: 3600,
			Checker:    invariant.NewStrict(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(sched); err != nil {
			t.Fatal(err)
		}
		pts := e.Collector().Points()
		total := 0.0
		for _, p := range pts {
			total += p.OutputRate
		}
		return total
	}
	ampleRef := run(base, evenDeploy("m1.xlarge", 4))
	ampleScaled := run(base*k, evenDeploy("m1.xlarge", 4))
	if math.Abs(ampleScaled-k*ampleRef) > 1e-6*(1+k*ampleRef) {
		t.Fatalf("ample: output(k·r)=%v, want exactly k·output(r)=%v", ampleScaled, k*ampleRef)
	}
	satRef := run(base, evenDeploy("m1.small", 1))
	satScaled := run(base*k, evenDeploy("m1.small", 1))
	if satScaled > k*satRef+1e-6*(1+k*satRef) {
		t.Fatalf("saturated: output(k·r)=%v exceeds k·output(r)=%v", satScaled, k*satRef)
	}
}

// TestMetamorphicZeroProbFaultsIdentical: a run with every fault knob
// present but at zero probability must be byte-for-byte identical to the
// fault-free run — trace stream, audit log, and per-interval CSV.
func TestMetamorphicZeroProbFaultsIdentical(t *testing.T) {
	g := unitChain()
	run := func(withZeroFaults bool) (trace, audit, csv string) {
		prof, err := rates.NewConstant(3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Graph:      g,
			Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
			Inputs:     map[int]rates.Profile{g.Inputs()[0]: prof},
			HorizonSec: 1800,
			Seed:       7,
			Audit:      true,
			Checker:    invariant.NewStrict(),
		}
		if withZeroFaults {
			cfg.Failures = sim.NoFailures{}
			cfg.Preemption = sim.NoFailures{}
			cfg.ControlFaults = &sim.ControlFaults{
				Seed:         99,
				Provisioning: &sim.ProvisioningFaults{MeanBootSec: 0},
				Acquisition:  &sim.AcquisitionFaults{FailProb: 0},
				Monitoring:   &sim.MonitoringFaults{StaleProb: 0, NoiseFrac: 0},
			}
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sink bytes.Buffer
		tracer := obs.NewTracer(&sink)
		e.SetTracer(tracer)
		if _, err := e.Run(evenDeploy("m1.large", 2)); err != nil {
			t.Fatal(err)
		}
		if err := tracer.Flush(); err != nil {
			t.Fatal(err)
		}
		var auditBuf, csvBuf bytes.Buffer
		if err := e.WriteAuditJSONL(&auditBuf); err != nil {
			t.Fatal(err)
		}
		if err := e.Collector().WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		return sink.String(), auditBuf.String(), csvBuf.String()
	}
	trace1, audit1, csv1 := run(false)
	trace2, audit2, csv2 := run(true)
	if trace1 != trace2 {
		t.Fatalf("trace streams differ:\n--- fault-free ---\n%s\n--- zero-prob ---\n%s", trace1, trace2)
	}
	if audit1 != audit2 {
		t.Fatalf("audit logs differ:\n%s\nvs\n%s", audit1, audit2)
	}
	if csv1 != csv2 {
		t.Fatalf("metric series differ:\n%s\nvs\n%s", csv1, csv2)
	}
	if len(trace1) == 0 || len(audit1) == 0 || len(csv1) == 0 {
		t.Fatal("comparison vacuous: empty artifacts")
	}
}

// TestDifferentialLocalVsGlobal replays one scenario through the paper's
// local and global heuristics: both must satisfy every invariant, and the
// two audit streams may differ only in decision events — the scheduler
// actions — never in engine-internal event types.
func TestDifferentialLocalVsGlobal(t *testing.T) {
	g := dataflow.EvalGraph()
	const rate, hours = 10.0, 2.0
	obj, err := core.PaperSigma(g, rate, hours)
	if err != nil {
		t.Fatal(err)
	}
	decisionEvents := map[string]bool{
		obs.EventDecision:        true,
		obs.EventSelectAlternate: true,
		obs.EventSelectRoute:     true,
		obs.EventAcquireVM:       true,
		obs.EventPendingVM:       true,
		obs.EventVMReady:         true,
		obs.EventReleaseVM:       true,
		obs.EventAssignCores:     true,
		obs.EventUnassignCores:   true,
	}
	run := func(strategy core.Strategy) (metrics.Summary, []sim.AuditEntry, *invariant.Checker) {
		prof, err := rates.NewConstant(rate)
		if err != nil {
			t.Fatal(err)
		}
		checker := invariant.New()
		e, err := sim.NewEngine(sim.Config{
			Graph:      g,
			Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
			Inputs:     map[int]rates.Profile{g.Inputs()[0]: prof},
			HorizonSec: int64(hours * 3600),
			Audit:      true,
			Checker:    checker,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := e.Run(heuristic(t, strategy, obj))
		if err != nil {
			t.Fatal(err)
		}
		return sum, e.AuditLog(), checker
	}
	sumL, auditL, checkL := run(core.Local)
	sumG, auditG, checkG := run(core.Global)
	if n := checkL.Count(); n != 0 {
		t.Fatalf("local heuristic violated %d invariants: %v", n, checkL.Violations())
	}
	if n := checkG.Count(); n != 0 {
		t.Fatalf("global heuristic violated %d invariants: %v", n, checkG.Violations())
	}
	if sumL.Intervals != sumG.Intervals {
		t.Fatalf("interval counts differ: %d vs %d", sumL.Intervals, sumG.Intervals)
	}
	for _, a := range append(append([]sim.AuditEntry(nil), auditL...), auditG...) {
		if !decisionEvents[a.Action] {
			t.Fatalf("audit stream contains non-decision event %q (%s)", a.Action, a)
		}
	}
	if len(auditL) == 0 || len(auditG) == 0 {
		t.Fatal("heuristic run produced no audit entries")
	}
}
