package core

import (
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// multiInputGraph joins two independent streams (sensor readings and
// control events) — the multi-merge case with more than one external
// source, which the paper's Def. 1 allows (I is a set).
func multiInputGraph() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("sensors", dataflow.Alt("e", 1, 0.15, 1)).
		AddPE("events", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("join",
			dataflow.Alt("full", 1.0, 0.9, 1),
			dataflow.Alt("lite", 0.8, 0.5, 1)).
		AddPE("out", dataflow.Alt("e", 1, 0.1, 1)).
		Connect("sensors", "join").
		Connect("events", "join").
		Connect("join", "out").
		MustBuild()
}

func TestMultiInputDeploymentAndAdaptation(t *testing.T) {
	g := multiInputGraph()
	ins := g.Inputs()
	if len(ins) != 2 {
		t.Fatalf("inputs = %d", len(ins))
	}
	obj, err := PaperSigma(g, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Local, Global} {
		h := MustHeuristic(Options{Strategy: strat, Dynamic: true, Adaptive: true, Objective: obj})
		sensors, _ := rates.NewWave(20, 8, 1800)
		events, _ := rates.NewRandomWalk(10, 0.1, 60, 5)
		e, err := sim.NewEngine(sim.Config{
			Graph: g,
			Menu:  cloud.MustMenu(cloud.AWS2013Classes()),
			Perf:  trace.MustReplayed(trace.ReplayedConfig{Seed: 8}),
			Inputs: map[int]rates.Profile{
				ins[0]: sensors,
				ins[1]: events,
			},
			HorizonSec: 3 * 3600,
			Seed:       6,
		})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := e.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		if !obj.MeetsConstraint(sum.MeanOmega) {
			t.Fatalf("%v: omega %.3f with two inputs", strat, sum.MeanOmega)
		}
	}
}

func TestMultiInputRatePropagationSumsAtJoin(t *testing.T) {
	g := multiInputGraph()
	sel := dataflow.DefaultSelection(g)
	in := dataflow.InputRates{0: 20, 1: 10}
	flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), in)
	if err != nil {
		t.Fatal(err)
	}
	if inRate := flow.InRates(); inRate[2] != 30 {
		t.Fatalf("join arrival = %v, want 30 (multi-merge)", inRate[2])
	}
}

func TestMultiInputPlanCoversBothSources(t *testing.T) {
	g := multiInputGraph()
	sel := dataflow.DefaultSelection(g)
	est := dataflow.InputRates{0: 20, 1: 10}
	plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), est, 0.7, Global)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), est)
	if err != nil {
		t.Fatal(err)
	}
	if omega, _ := flow.Capped(plan.Capacities(g, sel)); omega < 0.7-1e-9 {
		t.Fatalf("omega = %v", omega)
	}
}
