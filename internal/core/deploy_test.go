package core

import (
	"context"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

func awsMenu() *cloud.Menu { return cloud.MustMenu(cloud.AWS2013Classes()) }

func TestSelectAlternatesLocalPicksBestRatio(t *testing.T) {
	g := dataflow.Fig1Graph()
	sel, err := SelectAlternates(g, dataflow.DefaultRouting(g), Local)
	if err != nil {
		t.Fatal(err)
	}
	// E2: e1 ratio 1/1.2=0.83, e2 ratio 0.9/0.6=1.5 -> e2.
	// E3: e1 ratio 1/1.5=0.67, e2 ratio 0.8/0.5=1.6 -> e2.
	if sel[1] != 1 || sel[2] != 1 {
		t.Fatalf("selection = %v, want e2 for E2 and E3 (as Fig. 1b)", sel)
	}
}

func TestSelectAlternatesGlobalWeighsDownstream(t *testing.T) {
	// Two alternates for "head": equal value; alt 0 cheap but selectivity 3
	// (floods downstream), alt 1 pricier locally but selectivity 1. An
	// expensive downstream PE makes global prefer alt 1 while local picks
	// alt 0.
	g := dataflow.NewBuilder().
		AddPE("head",
			dataflow.Alt("flood", 1.0, 0.2, 3.0),
			dataflow.Alt("tame", 1.0, 0.4, 1.0)).
		AddPE("tail", dataflow.Alt("only", 1.0, 5.0, 1.0)).
		Connect("head", "tail").
		MustBuild()
	local, err := SelectAlternates(g, dataflow.DefaultRouting(g), Local)
	if err != nil {
		t.Fatal(err)
	}
	if local[0] != 0 {
		t.Fatalf("local selection = %v, want flood (cheapest own cost)", local)
	}
	global, err := SelectAlternates(g, dataflow.DefaultRouting(g), Global)
	if err != nil {
		t.Fatal(err)
	}
	// Global cost flood: 0.2 + 3*5 = 15.2; tame: 0.4 + 1*5 = 5.4.
	if global[0] != 1 {
		t.Fatalf("global selection = %v, want tame", global)
	}
}

// TestGlobalDeployPricesActiveRoute: a choice target off the active route
// receives no messages, so the global cost of an alternate upstream of a
// choice group must not charge for it. A's alternates differ only in value
// (keep 1.0, thin 0.9) and selectivity (1 and 0.5). Routed through cheap,
// keep costs 1 + 1·(0.1+0.1) = 1.2 and thin 1 + 0.5·0.2 = 1.1, so keep
// ranks best (0.833 against 0.818). Charging the idle heavy target too
// (cost 50) would make thin win. Routed through heavy, thin does win.
func TestGlobalDeployPricesActiveRoute(t *testing.T) {
	g := dataflow.NewBuilder().
		AddPE("in", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("A",
			dataflow.Alt("keep", 1.0, 1.0, 1.0),
			dataflow.Alt("thin", 0.9, 1.0, 0.5)).
		AddPE("cheap", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("heavy", dataflow.Alt("e", 1, 50, 1)).
		AddPE("out", dataflow.Alt("e", 1, 0.1, 1)).
		Connect("in", "A").
		AddChoice("route", "A", "cheap", "heavy").
		Connect("cheap", "out").
		Connect("heavy", "out").
		MustBuild()
	for route, want := range []string{"keep", "thin"} {
		sel, err := SelectAlternates(g, dataflow.Routing{route}, Global)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.PEs[1].Alternates[sel[1]].Name; got != want {
			t.Fatalf("route %d: A runs %q, want %q", route, got, want)
		}
	}
	if _, err := SelectAlternates(g, dataflow.Routing{}, Global); err == nil {
		t.Fatal("short routing accepted")
	}

	// Deploy prices alternates under the engine's routing (the default,
	// through cheap).
	rate, err := rates.NewConstant(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       awsMenu(),
		Perf:       trace.NewIdeal(),
		Inputs:     map[int]rates.Profile{0: rate},
		HorizonSec: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true,
		Objective: Objective{OmegaHat: 0.8, Epsilon: 0.05, Sigma: 0.01}})
	if err := e.RunUntil(context.Background(), h, 0); err != nil {
		t.Fatal(err)
	}
	if got := g.PEs[1].Alternates[e.Selection()[1]].Name; got != "keep" {
		t.Fatalf("global Deploy runs A as %q, want keep", got)
	}
}

func TestPlanAllocationMeetsTarget(t *testing.T) {
	g := dataflow.Fig1Graph()
	sel, _ := SelectAlternates(g, dataflow.DefaultRouting(g), Local)
	est := dataflow.InputRates{0: 10}
	for _, strat := range []Strategy{Local, Global} {
		plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), est, 0.75, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), est)
		if err != nil {
			t.Fatal(err)
		}
		if omega, _ := flow.Capped(plan.Capacities(g, sel)); omega < 0.75-1e-9 {
			t.Fatalf("%v: predicted omega %v below target", strat, omega)
		}
		// Every PE must own at least one core.
		ecus := plan.ECUs(g.N())
		for pe, e := range ecus {
			if e <= 0 {
				t.Fatalf("%v: PE %d has no capacity", strat, pe)
			}
		}
	}
}

func TestPlanAllocationGlobalNoCostlier(t *testing.T) {
	g := dataflow.EvalGraph()
	sel, _ := SelectAlternates(g, dataflow.DefaultRouting(g), Global)
	for _, rate := range []float64{2, 5, 10, 20, 50} {
		est := dataflow.InputRates{0: rate}
		local, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), est, 0.75, Local)
		if err != nil {
			t.Fatal(err)
		}
		global, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), est, 0.75, Global)
		if err != nil {
			t.Fatal(err)
		}
		if global.HourlyCost() > local.HourlyCost()+1e-9 {
			t.Fatalf("rate %v: global $%.2f/h costlier than local $%.2f/h",
				rate, global.HourlyCost(), local.HourlyCost())
		}
	}
}

func TestPlanAllocationLocalUsesLargestClassOnly(t *testing.T) {
	g := dataflow.Fig1Graph()
	sel := dataflow.DefaultSelection(g)
	plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), dataflow.InputRates{0: 5}, 0.75, Local)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range plan.VMs {
		if vm.Class.Name != "m1.xlarge" {
			t.Fatalf("local opened a %s", vm.Class.Name)
		}
	}
}

func TestPlanAllocationGlobalDowngradesAtLowRate(t *testing.T) {
	// At 2 msg/s the whole dataflow needs ~2 ECU; global should not keep a
	// whole xlarge fleet.
	g := dataflow.Fig1Graph()
	sel, _ := SelectAlternates(g, dataflow.DefaultRouting(g), Global)
	plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), dataflow.InputRates{0: 2}, 0.75, Global)
	if err != nil {
		t.Fatal(err)
	}
	sawSmaller := false
	for _, vm := range plan.VMs {
		if vm.Class.Name != "m1.xlarge" {
			sawSmaller = true
		}
	}
	if !sawSmaller {
		t.Fatalf("global never downgraded: cost $%.2f/h with %d VMs", plan.HourlyCost(), len(plan.VMs))
	}
}

func TestPlanAllocationRejectsBadTarget(t *testing.T) {
	g := dataflow.Fig1Graph()
	sel := dataflow.DefaultSelection(g)
	if _, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), dataflow.InputRates{0: 5}, 0, Local); err == nil {
		t.Fatal("target 0 accepted")
	}
	if _, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), dataflow.InputRates{0: 5}, 1.5, Local); err == nil {
		t.Fatal("target 1.5 accepted")
	}
}

func TestPlanAllocationZeroRate(t *testing.T) {
	g := dataflow.Fig1Graph()
	sel := dataflow.DefaultSelection(g)
	plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), dataflow.InputRates{0: 0}, 0.75, Global)
	if err != nil {
		t.Fatal(err)
	}
	// One core per PE minimum, nothing more.
	ecus := plan.ECUs(g.N())
	for pe, e := range ecus {
		if e <= 0 {
			t.Fatalf("PE %d has no core", pe)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if Local.String() != "local" || Global.String() != "global" {
		t.Fatal("strategy names wrong")
	}
}

func TestPlanECUsAndCost(t *testing.T) {
	menu := awsMenu()
	p := NewPlan(menu)
	p.AddCore(0)
	p.AddCore(0)
	p.AddCore(1)
	if len(p.VMs) != 1 {
		t.Fatalf("VMs = %d, want 1 (xlarge shared)", len(p.VMs))
	}
	ecus := p.ECUs(2)
	if ecus[0] != 4 || ecus[1] != 2 {
		t.Fatalf("ecus = %v", ecus)
	}
	if p.HourlyCost() != 0.48 {
		t.Fatalf("cost = %v", p.HourlyCost())
	}
	// Fill the xlarge, force a second VM.
	p.AddCore(1)
	p.AddCore(2)
	if len(p.VMs) != 2 {
		t.Fatalf("VMs = %d, want 2", len(p.VMs))
	}
}

func TestPlanIterativeRepackMerges(t *testing.T) {
	menu := awsMenu()
	p := NewPlan(menu)
	// Two xlarges, each hosting 1 core — mergeable into one.
	p.openVM(menu.Largest()).add(0, 1)
	p.openVM(menu.Largest()).add(1, 1)
	p.IterativeRepack()
	if len(p.VMs) != 1 {
		t.Fatalf("VMs after repack = %d", len(p.VMs))
	}
	if p.VMs[0].UsedCores() != 2 {
		t.Fatalf("merged cores = %d", p.VMs[0].UsedCores())
	}
}

func TestPlanDowngrade(t *testing.T) {
	menu := awsMenu()
	p := NewPlan(menu)
	p.openVM(menu.Largest()).add(0, 1)
	p.Downgrade()
	// 1 core at speed 2 (2 ECU) fits an m1.medium (1 core x 2 ECU).
	if p.VMs[0].Class.Name != "m1.medium" {
		t.Fatalf("downgraded to %s", p.VMs[0].Class.Name)
	}
	// Capacity must not drop.
	if got := p.ECUs(1)[0]; got < 2 {
		t.Fatalf("ECU after downgrade = %v", got)
	}
}
