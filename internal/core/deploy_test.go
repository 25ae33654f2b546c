package core

import (
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
)

func awsMenu() *cloud.Menu { return cloud.MustMenu(cloud.AWS2013Classes()) }

func TestSelectAlternatesLocalPicksBestRatio(t *testing.T) {
	g := dataflow.Fig1Graph()
	sel, err := SelectAlternates(g, Local)
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
	local, err := SelectAlternates(g, Local)
	if err != nil {
		t.Fatal(err)
	}
	if local[0] != 0 {
		t.Fatalf("local selection = %v, want flood (cheapest own cost)", local)
	}
	global, err := SelectAlternates(g, Global)
	if err != nil {
		t.Fatal(err)
	}
	// Global cost flood: 0.2 + 3*5 = 15.2; tame: 0.4 + 1*5 = 5.4.
	if global[0] != 1 {
		t.Fatalf("global selection = %v, want tame", global)
	}
}

func TestPlanAllocationMeetsTarget(t *testing.T) {
	g := dataflow.Fig1Graph()
	sel, _ := SelectAlternates(g, Local)
	est := dataflow.InputRates{0: 10}
	for _, strat := range []Strategy{Local, Global} {
		plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g), est, 0.75, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		caps := plan.Capacities(g, sel)
		omega, err := dataflow.PredictOmega(g, sel, est, caps)
		if err != nil {
			t.Fatal(err)
		}
		if omega < 0.75-1e-9 {
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
	sel, _ := SelectAlternates(g, Global)
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
	sel, _ := SelectAlternates(g, Global)
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
