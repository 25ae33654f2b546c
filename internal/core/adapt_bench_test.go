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

// BenchmarkAdaptLargeDAG measures one converged Adapt call on the largeDAG
// run. Ten warm-up intervals grow the fleet to about 1,300 VMs; each op
// then steps one interval and times only its Adapt (benchAdapt). ci.sh
// gates its allocs/op and its ns/op against
// BenchmarkEngineStepLargeDAG/steady.
func BenchmarkAdaptLargeDAG(b *testing.B) { benchAdapt(b, largeDAG, 10) }

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

// benchAdapt times converged Adapt calls: it builds a run, steps warm
// intervals, then each op steps one interval and times only its Adapt.
// When the next op would pass the horizon, the run and its warm-up are
// built again with the timer stopped, so b.N is not bounded by the horizon.
func benchAdapt(b *testing.B, build func(*testing.B) *scenario.Built, warm int64) {
	ctx := context.Background()
	var (
		built       *scenario.Built
		sched       timedAdapt
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
			sched = timedAdapt{Scheduler: built.Scheduler, b: b}
			step, steps = warm, built.Config.HorizonSec/interval
		}
		step++
		if err := built.Engine.RunUntil(ctx, sched, step*built.Config.IntervalSec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(built.Engine.Fleet().ActiveCount()), "vms")
}
