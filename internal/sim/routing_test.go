package sim

import (
	"math"
	"testing"

	"dynamicdf/internal/dataflow"
)

func choiceGraphSim() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("in", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("rich", dataflow.Alt("e", 1.0, 0.5, 1)).
		AddPE("cheap", dataflow.Alt("e", 0.6, 0.2, 1)).
		AddPE("out", dataflow.Alt("e", 1, 0.1, 1)).
		AddChoice("route", "in", "rich", "cheap").
		Connect("rich", "out").
		Connect("cheap", "out").
		MustBuild()
}

func TestEngineRoutedFlowAndGamma(t *testing.T) {
	g := choiceGraphSim()
	cfg := baseConfig(g, 5, 3600)
	e, _ := NewEngine(cfg)
	switched := false
	_, err := e.Run(&fixed{
		deploy: func(v *View, act Control) error {
			for pe := 0; pe < g.N(); pe++ {
				id, err := act.AcquireVM("m1.large")
				if err != nil {
					return err
				}
				if err := act.AssignCores(pe, id, 2); err != nil {
					return err
				}
			}
			return nil
		},
		adapt: func(v *View, act Control) error {
			if v.Now() >= 1800 && !switched {
				switched = true
				return act.SelectRoute(0, 1)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Collector().Points()
	first, last := pts[5], pts[len(pts)-1]
	// Before the switch all four PEs are live: gamma = 1 excludes cheap
	// (unreachable) -> (1+1+1)/3 = 1.
	if first.Gamma != 1 {
		t.Fatalf("gamma before switch = %v", first.Gamma)
	}
	// After: in, cheap, out live -> (1+0.6+1)/3.
	want := (1 + 0.6 + 1) / 3.0
	if math.Abs(last.Gamma-want) > 1e-12 {
		t.Fatalf("gamma after switch = %v, want %v", last.Gamma, want)
	}
	// Throughput unaffected (both routes amply provisioned).
	if last.Omega < 0.999 {
		t.Fatalf("omega after switch = %v", last.Omega)
	}
	// View reflects the routing.
	if v := NewView(e); v.Routing()[0] != 1 {
		t.Fatalf("routing = %v", v.Routing())
	}
}

func TestSelectRouteValidationInEngine(t *testing.T) {
	g := choiceGraphSim()
	cfg := baseConfig(g, 5, 600)
	e, _ := NewEngine(cfg)
	act := NewActions(e)
	if err := act.SelectRoute(2, 0); err == nil {
		t.Fatal("bad group accepted")
	}
	if err := act.SelectRoute(0, 5); err == nil {
		t.Fatal("bad target accepted")
	}
	if err := act.SelectRoute(0, 1); err != nil {
		t.Fatal(err)
	}
	v := NewView(e)
	if v.Routing()[0] != 1 {
		t.Fatal("route not applied")
	}
	if v.IntervalSec() != 60 {
		t.Fatalf("interval = %d", v.IntervalSec())
	}
	if v.Menu() == nil {
		t.Fatal("menu accessors broken")
	}
	if len(v.Selection()) != g.N() {
		t.Fatal("selection accessor broken")
	}
}
