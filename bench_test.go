package dynamicdf

import (
	"testing"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/experiments"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// benchConfig keeps per-iteration cost bounded while exercising the full
// experiment code paths: a 1-hour horizon over a sparse rate sweep.
func benchConfig() experiments.Config {
	c := experiments.Quick()
	c.HorizonSec = 3600
	c.Rates = []float64{5, 20}
	return c
}

// BenchmarkFig2TraceCPUVariability regenerates the Fig. 2 CPU-variability
// characterization (four-day traces for a pool of VMs).
func BenchmarkFig2TraceCPUVariability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(int64(i), 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			extreme := r.Deviation.Max
			if -r.Deviation.Min > extreme {
				extreme = -r.Deviation.Min
			}
			b.ReportMetric(extreme*100, "maxRelDev%")
		}
	}
}

// BenchmarkFig3TraceNetworkVariability regenerates the Fig. 3 network
// latency/bandwidth characterization.
func BenchmarkFig3TraceNetworkVariability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Bandwidth.CoV, "bwCoV")
		}
	}
}

// BenchmarkFig4StaticUnderVariability regenerates Fig. 4: static
// deployments (brute force, local, global) under the four variability
// scenarios at 5 msg/s.
func BenchmarkFig4StaticUnderVariability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[0].Omega, "bf-omega-novar")
			b.ReportMetric(r.Rows[len(r.Rows)-1].Omega, "global-omega-both")
		}
	}
}

// BenchmarkFig5StaticVsRate regenerates Fig. 5: static deployments across
// the data-rate sweep without variability.
func BenchmarkFig5StaticVsRate(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6AdaptiveInfraVariability regenerates Fig. 6: local vs
// global adaptive heuristics under infrastructure variability.
func BenchmarkFig6AdaptiveInfraVariability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[len(r.Rows)-1].Theta, "global-theta")
		}
	}
}

// BenchmarkFig7AdaptiveDataVariability regenerates Fig. 7: local vs global
// adaptive heuristics under data-rate variability.
func BenchmarkFig7AdaptiveDataVariability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8DollarCost regenerates Fig. 8: dollars spent by
// {global, global-nodyn, local, local-nodyn} across rates with both
// variabilities.
func BenchmarkFig8DollarCost(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[0].CostUSD, "global-cost-usd")
		}
	}
}

// BenchmarkFig9DynamismBenefit regenerates Fig. 9: the dollar-cost savings
// application dynamism delivers.
func BenchmarkFig9DynamismBenefit(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		f8, err := experiments.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f9, err := experiments.DeriveFig9(f8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(f9.MeanGlobalSavings(), "globalSavings%")
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablation table
// (release-window policy, hysteresis, alternate cadence, consolidation,
// monitoring smoothing).
func BenchmarkAblations(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunAblations(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Rows[0].Summary.TotalCostUSD, "baseline-cost-usd")
		}
	}
}

// BenchmarkFaultTolerance regenerates the §9 fault-tolerance extension:
// static vs adaptive policies under exponential VM crashes.
func BenchmarkFaultTolerance(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFaultTolerance(cfg, 20, 1.5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Rows[len(r.Rows)-1].Crashes), "crashes")
		}
	}
}

// BenchmarkTableVMClasses regenerates the §8.1 VM instance-type table.
func BenchmarkTableVMClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.VMClassTable(); len(tbl) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Microbenchmarks of the substrates the figures run on. ---

// BenchmarkSimulatorInterval measures one engine interval on the
// evaluation dataflow with an adaptive global policy attached.
func BenchmarkSimulatorInterval(b *testing.B) {
	g := dataflow.EvalGraph()
	obj, err := PaperSigma(g, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := rates.NewConstant(20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := sim.NewEngine(sim.Config{
			Graph:      g,
			Menu:       MustMenu(AWS2013Classes()),
			Perf:       trace.MustReplayed(trace.ReplayedConfig{Seed: 1}),
			Inputs:     map[int]rates.Profile{0: prof},
			HorizonSec: 3600,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.Run(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStepFaults measures raw engine step throughput with the
// control-plane fault injectors off and on, isolating the overhead the
// chaoscloud layer adds to every interval (boot queues, capacity draws,
// monitor perturbation).
func BenchmarkEngineStepFaults(b *testing.B) {
	g := dataflow.EvalGraph()
	obj, err := PaperSigma(g, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := rates.NewConstant(20)
	if err != nil {
		b.Fatal(err)
	}
	faults := &sim.ControlFaults{
		Provisioning: &sim.ProvisioningFaults{MeanBootSec: 120},
		Acquisition:  &sim.AcquisitionFaults{FailProb: 0.2, BurstEverySec: 3600, AfterSec: 60},
		Monitoring:   &sim.MonitoringFaults{StaleProb: 0.3, NoiseFrac: 0.2},
		Seed:         7,
	}
	const horizon = 3600
	for _, bc := range []struct {
		name string
		cf   *sim.ControlFaults
	}{
		{"faults=off", nil},
		{"faults=on", faults},
	} {
		b.Run(bc.name, func(b *testing.B) {
			intervals := int64(0)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, err := NewHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
				if err != nil {
					b.Fatal(err)
				}
				e, err := sim.NewEngine(sim.Config{
					Graph:         g,
					Menu:          MustMenu(AWS2013Classes()),
					Perf:          trace.MustReplayed(trace.ReplayedConfig{Seed: 1}),
					Inputs:        map[int]rates.Profile{0: prof},
					HorizonSec:    horizon,
					ControlFaults: bc.cf,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				sum, err := e.Run(h)
				if err != nil {
					b.Fatal(err)
				}
				intervals += int64(sum.Intervals)
			}
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(intervals)/b.Elapsed().Seconds(), "steps/s")
			}
		})
	}
}

// BenchmarkTraceGeneration measures four-day synthetic CPU trace
// generation.
func BenchmarkTraceGeneration(b *testing.B) {
	cfg := trace.DefaultCPUConfig()
	for i := 0; i < b.N; i++ {
		p := trace.MustReplayed(trace.ReplayedConfig{Seed: int64(i), CPUTraces: 1, NetTraces: 1})
		_ = p.CPUCoeff(0, 0)
	}
	_ = cfg
}

// BenchmarkRatePropagation measures uncapped and capped rate propagation
// on the evaluation dataflow: one RoutedFlow prepared and scored per op.
func BenchmarkRatePropagation(b *testing.B) {
	g := dataflow.EvalGraph()
	sel := dataflow.DefaultSelection(g)
	routing := dataflow.DefaultRouting(g)
	in := dataflow.InputRates{0: 50}
	caps := []float64{100, 100, 100, 100}
	var flow dataflow.RoutedFlow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flow.Prepare(g, sel, routing, in); err != nil {
			b.Fatal(err)
		}
		flow.Capped(caps)
	}
}
