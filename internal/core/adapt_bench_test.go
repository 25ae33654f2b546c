package core_test

import (
	"context"
	"fmt"
	"testing"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/workload"
)

// timedAdapt runs the inner scheduler with the benchmark timer on only
// around Adapt, so interval stepping stays out of the measurement.
type timedAdapt struct {
	sim.Scheduler
	b *testing.B
}

func (t timedAdapt) Adapt(v *sim.View, act sim.Control) error {
	t.b.StartTimer()
	err := t.Scheduler.Adapt(v, act)
	t.b.StopTimer()
	return err
}

// timedStep adapts nothing and starts the benchmark timer where Adapt would
// run, so that the timer covers the interval's engine step; benchIntervals
// stops it when RunUntil returns.
type timedStep struct {
	sim.Scheduler
	b *testing.B
}

func (t timedStep) Adapt(*sim.View, sim.Control) error {
	t.b.StartTimer()
	return nil
}

// largeDAG builds the scheduler benchmarks' run: the global adaptive
// heuristic on the 1002-PE layered DAG (50 chains of 20 stages, 3
// alternates each) under a 1 msg/s wave on replayed infrastructure.
func largeDAG(b *testing.B) *scenario.Built {
	gs, choices := scenario.FromGraph(dataflow.LayeredGraph(50, 20, 3))
	sc := scenario.Scenario{
		Graph:        gs,
		Choices:      choices,
		Rate:         scenario.RateSpec{Kind: "wave", Mean: 1, Amplitude: 0.4},
		Infra:        scenario.InfraSpec{Kind: "replayed", Seed: 1},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: 100,
		IntervalSec:  60,
		Seed:         1,
		MaxVMs:       4096,
	}
	built, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	return built
}

// BenchmarkDeployLargeDAG measures the global heuristic's Deploy (Alg. 1:
// alternate selection, the planner, materializing about 1,000 VMs) on the
// largeDAG run. Each op builds a fresh run with the timer stopped and times
// only RunUntil(ctx, sched, 0), which deploys and steps nothing. ci.sh
// gates its ns/op against BenchmarkEngineStepLargeDAG/steady and its B/op.
func BenchmarkDeployLargeDAG(b *testing.B) {
	ctx := context.Background()
	var built *scenario.Built
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		built = largeDAG(b)
		b.StartTimer()
		if err := built.Engine.RunUntil(ctx, built.Scheduler, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(built.Engine.Fleet().ActiveCount()), "vms")
}

// BenchmarkAdaptLargeDAG measures one Adapt call on the largeDAG run while
// its fleet still converges. Ten warm-up intervals grow the fleet to about
// 1,300 VMs, and the next hundred shrink it to about 1,250; each op steps
// one interval and times only its Adapt (benchAdapt). ci.sh gates its
// allocs/op and its ns/op against BenchmarkEngineStepLargeDAG/steady.
func BenchmarkAdaptLargeDAG(b *testing.B) { benchAdapt(b, largeDAG, 10) }

// convergedWarm is how many warm-up intervals the converged largeDAG rows
// step first: by then the fleet has settled at about 1,030 VMs and moves
// by a few VMs an interval.
const convergedWarm = 1000

// BenchmarkConvergedLargeDAG measures the largeDAG run once it has
// converged, after convergedWarm intervals: /adapt times one Adapt call
// (benchAdapt), /step one interval's engine step under a no-op Adapt
// (benchStep), over the same fleet and arena rows. ci.sh gates /adapt's
// allocs/op and prints its ratio to /step.
func BenchmarkConvergedLargeDAG(b *testing.B) {
	b.Run("adapt", func(b *testing.B) { benchAdapt(b, largeDAG, convergedWarm) })
	b.Run("step", func(b *testing.B) { benchStep(b, largeDAG, convergedWarm) })
}

// multiTenant builds the shape of the benchmark's tenants-scarce workload:
// 16 tenants, each a 14-PE layered graph (4 chains of 3 stages, 5
// alternates each) fed by one of four session models, sharing a fleet
// capped at 400 VMs on replayed infrastructure under the global heuristic
// and the fair-share arbiter.
func multiTenant(b *testing.B) *scenario.Built {
	gs, choices := scenario.FromGraph(dataflow.LayeredGraph(4, 3, 5))
	const hours = 3
	tenants := make([]scenario.TenantSpec, 16)
	for i := range tenants {
		s := &workload.Spec{MeanSessionSec: 600, MsgPerSessionSec: 0.15, Seed: int64(1 + i)}
		switch i % 4 {
		case 0:
			s.Model, s.ArrivalPerSec, s.Diurnal, s.DiurnalPeriodSec = workload.Open, 0.05, 0.5, hours*3600
		case 1:
			s.Model, s.Population, s.ThinkSec = workload.Closed, 60, 600
		case 2:
			s.Model, s.ArrivalPerSec, s.BurstFactor = workload.Open, 0.036, 3
			s.CalmResidencySec, s.BurstResidencySec = 1200, 300
		case 3:
			s.Model, s.ArrivalPerSec = workload.Open, 0.05
			s.FlashProb, s.FlashFactor, s.FlashSec = 0.01, 2, 300
		}
		tenants[i] = scenario.TenantSpec{
			Name:       fmt.Sprintf("t%02d", i),
			Graph:      gs,
			Choices:    choices,
			Rate:       scenario.RateSpec{Kind: "sessions", Seed: int64(100 + i), Sessions: s},
			OmegaFloor: 0.6 + 0.05*float64(i%3),
			Priority:   i % 3,
		}
	}
	sc := scenario.Scenario{
		Tenants:      tenants,
		Infra:        scenario.InfraSpec{Kind: "replayed", Seed: 1},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: hours,
		IntervalSec:  60,
		Seed:         1,
		MaxVMs:       400,
	}
	built, err := sc.Build()
	if err != nil {
		b.Fatal(err)
	}
	return built
}

// BenchmarkAdaptMultiTenant measures one converged Adapt call of the
// multiTenant run: 16 tenants' heuristics, each reading the shared fleet,
// and the arbiter's rulings once the fleet runs scarce. Timed like
// BenchmarkAdaptLargeDAG, after 30 warm-up intervals. ci.sh gates its
// allocs/op and its ns/op against BenchmarkEngineStepMultiTenant.
func BenchmarkAdaptMultiTenant(b *testing.B) { benchAdapt(b, multiTenant, 30) }

// benchAdapt times Adapt calls: each op steps one interval and times only
// its Adapt.
func benchAdapt(b *testing.B, build func(*testing.B) *scenario.Built, warm int64) {
	benchIntervals(b, build, warm, func(s sim.Scheduler) sim.Scheduler { return timedAdapt{Scheduler: s, b: b} })
}

// benchStep times engine steps: each op steps one interval under a no-op
// Adapt and times the step.
func benchStep(b *testing.B, build func(*testing.B) *scenario.Built, warm int64) {
	benchIntervals(b, build, warm, func(s sim.Scheduler) sim.Scheduler { return timedStep{Scheduler: s, b: b} })
}

// benchIntervals builds a run, steps warm intervals, then steps one
// interval per op under the scheduler timed returns, which starts the
// benchmark timer around what the op measures. When the next op would pass
// the horizon, the run and its warm-up are built again with the timer
// stopped, so b.N is not bounded by the horizon.
func benchIntervals(b *testing.B, build func(*testing.B) *scenario.Built, warm int64, timed func(sim.Scheduler) sim.Scheduler) {
	ctx := context.Background()
	var (
		built       *scenario.Built
		sched       sim.Scheduler
		step, steps int64
	)
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		if step == steps {
			built = build(b)
			interval := built.Config.IntervalSec
			if err := built.Engine.RunUntil(ctx, built.Scheduler, warm*interval); err != nil {
				b.Fatal(err)
			}
			sched = timed(built.Scheduler)
			step, steps = warm, built.Config.HorizonSec/interval
		}
		step++
		if err := built.Engine.RunUntil(ctx, sched, step*built.Config.IntervalSec); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
	b.ReportMetric(float64(built.Engine.Fleet().ActiveCount()), "vms")
}
