package sweep

import (
	"context"
	"testing"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/state"
	"dynamicdf/internal/trace"
)

// BenchmarkExecuteJob times one sweep job, the unit of every campaign: a
// 10 h run of the paper's evaluation graph on replayed infrastructure under
// the wave+walk input and the strict checker. cold runs it from t=0; forked
// restores it from a checkpoint of its first 5 h, taken outside the timer.
// Both draw from one trace.Pools warmed outside the timer, as a campaign's
// jobs do, so trace generation is not part of a job.
func BenchmarkExecuteJob(b *testing.B) {
	gs, choices := scenario.FromGraph(dataflow.EvalGraph())
	sc := &scenario.Scenario{
		Graph:        gs,
		Choices:      choices,
		Rate:         scenario.RateSpec{Kind: "wavewalk", Mean: 10},
		Infra:        scenario.InfraSpec{Kind: "replayed"},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: 10,
		IntervalSec:  60,
		Seed:         7,
		Check:        &scenario.CheckSpec{Enabled: true, Strict: true},
	}
	job := Job{ID: "bench", Scenario: sc, Pools: new(trace.Pools)}
	ctx := context.Background()
	if _, err := sc.BuildWith(job.Pools); err != nil {
		b.Fatal(err)
	}
	snap := RunPrefix(ctx, sc, 5*3600, job.Pools)
	if snap == nil {
		b.Fatal("prefix run failed")
	}
	for _, bc := range []struct {
		name string
		snap *state.Snapshot
	}{{"cold", nil}, {"forked", snap}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, _ := ExecuteJob(ctx, job, bc.snap, nil, nil, i)
				if res.Error != "" || res.Intervals != 600 || res.Forked != (bc.snap != nil) {
					b.Fatalf("job: error %q, %d intervals, forked %v", res.Error, res.Intervals, res.Forked)
				}
			}
		})
	}
}
