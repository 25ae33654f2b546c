package dataflow

import (
	"math"
	"testing"
	"testing/quick"
)

// choiceGraph: in routes (choice) to either a deep two-stage path or a
// shallow single-stage path, both converging on out.
//
//	in ─choice─► deepA ─► deepB ─► out
//	        └──► shallow ────────► out
func choiceGraph() *Graph {
	return NewBuilder().
		AddPE("in", Alt("e", 1, 0.1, 1)).
		AddPE("deepA", Alt("e", 1.0, 1.2, 1)).
		AddPE("deepB", Alt("e", 1.0, 1.0, 1)).
		AddPE("shallow", Alt("e", 0.7, 0.4, 1)).
		AddPE("out", Alt("e", 1, 0.1, 1)).
		AddChoice("depth", "in", "deepA", "shallow").
		Connect("deepA", "deepB").
		Connect("deepB", "out").
		Connect("shallow", "out").
		MustBuild()
}

func TestChoiceGraphValidates(t *testing.T) {
	g := choiceGraph()
	if len(g.Choices) != 1 || g.Choices[0].Name != "depth" {
		t.Fatalf("choices = %+v", g.Choices)
	}
}

func TestChoiceValidationErrors(t *testing.T) {
	base := func() *Builder {
		return NewBuilder().
			AddPE("a", Alt("e", 1, 1, 1)).
			AddPE("b", Alt("e", 1, 1, 1)).
			AddPE("c", Alt("e", 1, 1, 1)).
			AddPE("d", Alt("e", 1, 1, 1)).
			Connect("b", "d").
			Connect("c", "d")
	}
	// Single target.
	if _, err := base().AddChoice("g", "a", "b").Build(); err == nil {
		t.Fatal("single-target group accepted")
	}
	// Duplicate target.
	if _, err := base().AddChoice("g", "a", "b", "b").Build(); err == nil {
		t.Fatal("duplicate target accepted")
	}
	// Duplicate group name.
	if _, err := base().AddChoice("g", "a", "b", "c").AddChoice("g", "d", "b", "c").Build(); err == nil {
		t.Fatal("duplicate group name accepted")
	}
	// Unknown PEs through builder.
	if _, err := base().AddChoice("g", "ghost", "b", "c").Build(); err == nil {
		t.Fatal("unknown from accepted")
	}
	if _, err := base().AddChoice("g", "a", "ghost", "c").Build(); err == nil {
		t.Fatal("unknown target accepted")
	}
	// A PE claimed by two groups.
	g2 := base().AddChoice("g1", "a", "b", "c")
	g2.AddPE("e", Alt("e", 1, 1, 1))
	if _, err := g2.AddChoice("g2", "e", "b", "c").Build(); err == nil {
		t.Fatal("target shared between groups accepted")
	}
	// Direct struct construction: target not a successor.
	pes := []*PE{
		{Name: "x", Alternates: []Alternate{Alt("e", 1, 1, 1)}},
		{Name: "y", Alternates: []Alternate{Alt("e", 1, 1, 1)}},
		{Name: "z", Alternates: []Alternate{Alt("e", 1, 1, 1)}},
	}
	g3 := &Graph{PEs: pes, Edges: []Edge{{0, 1}, {1, 2}},
		Choices: []ChoiceGroup{{Name: "g", From: 0, Targets: []int{1, 2}}}}
	if err := g3.Validate(); err == nil {
		t.Fatal("non-successor target accepted")
	}
}

func TestRoutingValidate(t *testing.T) {
	g := choiceGraph()
	r := DefaultRouting(g)
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if err := (Routing{5}).Validate(g); err == nil {
		t.Fatal("out-of-range route accepted")
	}
	if err := (Routing{}).Validate(g); err == nil {
		t.Fatal("short routing accepted")
	}
}

func TestActiveSuccessorsRespectRouting(t *testing.T) {
	g := choiceGraph()
	in := 0
	deep := g.PEs[1] // deepA
	_ = deep
	r := Routing{0} // deepA active
	succ := g.ActiveSuccessors(in, r)
	if len(succ) != 1 || g.PEs[succ[0]].Name != "deepA" {
		t.Fatalf("route 0 successors = %v", succ)
	}
	r = Routing{1} // shallow active
	succ = g.ActiveSuccessors(in, r)
	if len(succ) != 1 || g.PEs[succ[0]].Name != "shallow" {
		t.Fatalf("route 1 successors = %v", succ)
	}
	// PEs without choice groups keep all successors.
	if got := g.ActiveSuccessors(1, r); len(got) != 1 {
		t.Fatalf("deepA successors = %v", got)
	}
}

func TestPropagateRatesRouted(t *testing.T) {
	g := choiceGraph()
	sel := DefaultSelection(g)
	in := InputRates{0: 10}
	// Deep route: shallow gets nothing.
	f, err := NewRoutedFlow(g, sel, Routing{0}, in)
	if err != nil {
		t.Fatal(err)
	}
	inR, outR := f.InRates(), f.outRate
	if inR[1] != 10 || inR[3] != 0 {
		t.Fatalf("deep route: deepA in=%v shallow in=%v", inR[1], inR[3])
	}
	if outR[4] != 10 {
		t.Fatalf("out rate = %v", outR[4])
	}
	// Shallow route: deep path dark.
	if err := f.Prepare(g, sel, Routing{1}, in); err != nil {
		t.Fatal(err)
	}
	inR, outR = f.InRates(), f.outRate
	if inR[1] != 0 || inR[3] != 10 {
		t.Fatalf("shallow route: deepA in=%v shallow in=%v", inR[1], inR[3])
	}
	if outR[4] != 10 {
		t.Fatalf("out rate = %v", outR[4])
	}
}

func TestReachableUnderRouting(t *testing.T) {
	g := choiceGraph()
	reach := g.ReachableUnderRouting(Routing{1})
	names := map[string]bool{}
	for pe, ok := range reach {
		names[g.PEs[pe].Name] = ok
	}
	if !names["in"] || !names["shallow"] || !names["out"] {
		t.Fatalf("reach = %v", names)
	}
	if names["deepA"] || names["deepB"] {
		t.Fatalf("inactive path reachable: %v", names)
	}
}

func TestRoutedValue(t *testing.T) {
	g := choiceGraph()
	sel := DefaultSelection(g)
	deepVal, err := RoutedValue(g, sel, Routing{0})
	if err != nil {
		t.Fatal(err)
	}
	// Active PEs: in(1), deepA(1), deepB(1), out(1) -> 1.0.
	if deepVal != 1.0 {
		t.Fatalf("deep value = %v", deepVal)
	}
	shallowVal, err := RoutedValue(g, sel, Routing{1})
	if err != nil {
		t.Fatal(err)
	}
	// Active: in(1), shallow(0.7), out(1) -> 0.9.
	if math.Abs(shallowVal-0.9) > 1e-12 {
		t.Fatalf("shallow value = %v", shallowVal)
	}
	// For a graph without choices, RoutedValue is the mean over all PEs.
	g2 := Fig1Graph()
	sel2 := Selection{0, 1, 1, 0}
	v, err := RoutedValue(g2, sel2, DefaultRouting(g2))
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.0 + 0.9 + 0.8 + 1.0) / 4; v != want {
		t.Fatalf("routed %v != plain mean %v", v, want)
	}
}

func TestRouteCosts(t *testing.T) {
	g := choiceGraph()
	sel := DefaultSelection(g)
	costs, err := RouteCosts(g, sel, DefaultRouting(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	// deepA: 1.2 + 1.0 + 0.1 = 2.3; shallow: 0.4 + 0.1 = 0.5.
	if math.Abs(costs[0]-2.3) > 1e-12 || math.Abs(costs[1]-0.5) > 1e-12 {
		t.Fatalf("route costs = %v", costs)
	}
	if _, err := RouteCosts(g, sel, DefaultRouting(g), 5); err == nil {
		t.Fatal("bad group accepted")
	}
}

func TestPredictOmegaRouted(t *testing.T) {
	g := choiceGraph()
	sel := DefaultSelection(g)
	in := InputRates{0: 10}
	// Ample capacity everywhere: omega 1 on either route.
	caps := []float64{100, 100, 100, 100, 100}
	deep, err := NewRoutedFlow(g, sel, Routing{0}, in)
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := NewRoutedFlow(g, sel, Routing{1}, in)
	if err != nil {
		t.Fatal(err)
	}
	for r, f := range []*RoutedFlow{deep, shallow} {
		if om, _ := f.Capped(caps); om != 1 {
			t.Fatalf("route %d omega = %v", r, om)
		}
	}
	// Deep path starved: deep route throttles, shallow route unaffected.
	caps = []float64{100, 5, 100, 100, 100}
	omDeep, _ := deep.Capped(caps)
	omShallow, _ := shallow.Capped(caps)
	if omDeep >= 0.6 {
		t.Fatalf("deep omega = %v, want throttled", omDeep)
	}
	if omShallow != 1 {
		t.Fatalf("shallow omega = %v", omShallow)
	}
}

func TestPropertyRoutingConservation(t *testing.T) {
	// With unit selectivities, the output rate equals the input rate under
	// every routing choice.
	f := func(route bool, rateRaw uint16) bool {
		g := choiceGraph()
		sel := DefaultSelection(g)
		rate := float64(rateRaw%1000) + 1
		r := Routing{0}
		if route {
			r = Routing{1}
		}
		flow, err := NewRoutedFlow(g, sel, r, InputRates{0: rate})
		if err != nil {
			return false
		}
		return math.Abs(flow.outRate[4]-rate) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
