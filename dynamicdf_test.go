package dynamicdf_test

import (
	"fmt"
	"testing"

	"dynamicdf"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	g := dynamicdf.Fig1Graph()
	obj, err := dynamicdf.PaperSigma(g, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := dynamicdf.NewHeuristic(dynamicdf.Options{
		Strategy:  dynamicdf.Global,
		Dynamic:   true,
		Adaptive:  true,
		Objective: obj,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := dynamicdf.NewConstant(5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dynamicdf.NewEngine(dynamicdf.Config{
		Graph:      g,
		Menu:       dynamicdf.MustMenu(dynamicdf.AWS2013Classes()),
		Inputs:     map[int]dynamicdf.Profile{0: prof},
		HorizonSec: 2 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.MeetsConstraint(sum.MeanOmega) {
		t.Fatalf("omega %.3f misses constraint", sum.MeanOmega)
	}
	if sum.TotalCostUSD <= 0 {
		t.Fatal("no cost accrued")
	}
}

func TestPublicAPICustomGraph(t *testing.T) {
	g, err := dynamicdf.NewBuilder().
		AddPE("ingest", dynamicdf.Alt("only", 1, 0.2, 1)).
		AddPE("detect",
			dynamicdf.Alt("cnn", 1.0, 2.0, 0.5),
			dynamicdf.Alt("haar", 0.7, 0.6, 0.5)).
		AddPE("alert", dynamicdf.Alt("only", 1, 0.1, 1)).
		Chain("ingest", "detect", "alert").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := dynamicdf.PaperSigma(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := dynamicdf.NewBruteForce(obj, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := dynamicdf.NewWave(10, 3, 1200)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := dynamicdf.NewReplayedCloud(dynamicdf.ReplayedConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := dynamicdf.NewEngine(dynamicdf.Config{
		Graph:      g,
		Menu:       dynamicdf.MustMenu(dynamicdf.AWS2013Classes()),
		Perf:       perf,
		Inputs:     map[int]dynamicdf.Profile{0: w},
		HorizonSec: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Run(bf)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Intervals != 60 {
		t.Fatalf("intervals = %d", sum.Intervals)
	}
}

// ExampleNewBuilder demonstrates constructing and running a small dynamic
// dataflow through the public API.
func ExampleNewBuilder() {
	g := dynamicdf.NewBuilder().
		AddPE("src", dynamicdf.Alt("only", 1, 0.1, 1)).
		AddPE("work",
			dynamicdf.Alt("precise", 1.0, 1.0, 1),
			dynamicdf.Alt("fast", 0.8, 0.4, 1)).
		Chain("src", "work").
		MustBuild()
	fmt.Println(g.N(), "PEs,", len(g.PEs[1].Alternates), "alternates on work")
	// Output: 2 PEs, 2 alternates on work
}
