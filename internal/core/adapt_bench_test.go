package core_test

import (
	"context"
	"testing"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
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
// then steps one interval and times only its Adapt. When the next op would
// pass the horizon, the run and its warm-up are built again with the timer
// stopped, so b.N is not bounded by the horizon. ci.sh gates its allocs/op
// and its ns/op against BenchmarkEngineStepLargeDAG/steady.
func BenchmarkAdaptLargeDAG(b *testing.B) {
	ctx := context.Background()
	const warm = 10
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
			built = largeDAG(b)
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
