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

// BenchmarkAdaptLargeDAG measures one converged Adapt call of the global
// adaptive heuristic on the 1002-PE layered DAG (50 chains of 20 stages, 3
// alternates each) under a 1 msg/s wave on replayed infrastructure. Ten
// warm-up intervals grow the fleet to about 1,300 VMs; each op then steps
// one interval and times only its Adapt. ci.sh gates its allocs/op and its
// ns/op against BenchmarkEngineStepLargeDAG/steady.
func BenchmarkAdaptLargeDAG(b *testing.B) {
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
	eng := built.Engine
	ctx := context.Background()
	interval := built.Config.IntervalSec
	const warm = 10
	if err := eng.RunUntil(ctx, built.Scheduler, warm*interval); err != nil {
		b.Fatal(err)
	}
	if left := built.Config.HorizonSec/interval - warm; int64(b.N) > left {
		b.Fatalf("b.N = %d exceeds the %d intervals left in the horizon", b.N, left)
	}
	sched := timedAdapt{Scheduler: built.Scheduler, b: b}
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 1; i <= b.N; i++ {
		if err := eng.RunUntil(ctx, sched, (warm+int64(i))*interval); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(eng.Fleet().ActiveCount()), "vms")
}
