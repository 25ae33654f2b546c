package core

import (
	"math"
	"testing"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// TestPredictedOmegaMatchesMeasured cross-validates the planner against the
// engine: for a static deployment at constant rate on an ideal cloud, the
// relative throughput a dataflow.RoutedFlow predicts from the plan must be
// what the simulator actually measures — the model and the simulation are
// two views of the same fluid system.
func TestPredictedOmegaMatchesMeasured(t *testing.T) {
	for _, tc := range []struct {
		graph  *dataflow.Graph
		rate   float64
		target float64
	}{
		{dataflow.Fig1Graph(), 5, 0.7},
		{dataflow.Fig1Graph(), 20, 0.8},
		{dataflow.EvalGraph(), 10, 0.7},
		{dataflow.EvalGraph(), 35, 0.75},
		{dataflow.DiamondGraph(), 8, 0.9},
	} {
		g := tc.graph
		sel, err := SelectAlternates(g, dataflow.DefaultRouting(g), Global)
		if err != nil {
			t.Fatal(err)
		}
		est := dataflow.InputRates{}
		for _, pe := range g.Inputs() {
			est[pe] = tc.rate / float64(len(g.Inputs()))
		}
		plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), est, tc.target, Global)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), est)
		if err != nil {
			t.Fatal(err)
		}
		predicted, _ := flow.Capped(plan.Capacities(g, sel))

		profiles := map[int]rates.Profile{}
		for pe, r := range est {
			c, err := rates.NewConstant(r)
			if err != nil {
				t.Fatal(err)
			}
			profiles[pe] = c
		}
		e, err := sim.NewEngine(sim.Config{
			Graph:      g,
			Menu:       awsMenu(),
			Perf:       trace.NewIdeal(),
			Inputs:     profiles,
			HorizonSec: 3600,
		})
		if err != nil {
			t.Fatal(err)
		}
		mat := &materializer{plan: plan, sel: sel}
		sum, err := e.Run(mat)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(sum.MeanOmega - predicted); diff > 0.02 {
			t.Fatalf("%s @ %.0f msg/s: predicted omega %.4f, measured %.4f (diff %.4f)",
				g, tc.rate, predicted, sum.MeanOmega, diff)
		}
	}
}
