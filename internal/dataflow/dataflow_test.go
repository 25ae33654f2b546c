package dataflow

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAlternateValidate(t *testing.T) {
	cases := []struct {
		name string
		alt  Alternate
		ok   bool
	}{
		{"valid", Alt("a", 1.0, 0.5, 1.0), true},
		{"valid low value", Alt("a", 0.01, 0.5, 0.2), true},
		{"empty name", Alt("", 1.0, 0.5, 1.0), false},
		{"zero value", Alt("a", 0, 0.5, 1.0), false},
		{"value above one", Alt("a", 1.5, 0.5, 1.0), false},
		{"negative value", Alt("a", -0.5, 0.5, 1.0), false},
		{"zero cost", Alt("a", 1.0, 0, 1.0), false},
		{"negative cost", Alt("a", 1.0, -1, 1.0), false},
		{"zero selectivity", Alt("a", 1.0, 0.5, 0), false},
		{"negative selectivity", Alt("a", 1.0, 0.5, -0.1), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.alt.Validate()
			if c.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !c.ok && err == nil {
				t.Fatalf("want error, got nil")
			}
		})
	}
}

func TestGraphValidateRejectsCycle(t *testing.T) {
	pes := []*PE{
		{Name: "a", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
		{Name: "b", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
		{Name: "c", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
		{Name: "src", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
	}
	edges := []Edge{{3, 0}, {0, 1}, {1, 2}, {2, 0}}
	if _, err := NewGraph(pes, edges); err == nil {
		t.Fatal("cycle accepted")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestGraphValidateRejectsSelfLoop(t *testing.T) {
	pes := []*PE{{Name: "a", Alternates: []Alternate{Alt("x", 1, 1, 1)}}}
	if _, err := NewGraph(pes, []Edge{{0, 0}}); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestGraphValidateRejectsDuplicates(t *testing.T) {
	pes := []*PE{
		{Name: "a", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
		{Name: "a", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
	}
	if _, err := NewGraph(pes, []Edge{{0, 1}}); err == nil {
		t.Fatal("duplicate PE name accepted")
	}
	pes2 := []*PE{
		{Name: "a", Alternates: []Alternate{Alt("x", 1, 1, 1), Alt("x", 1, 2, 1)}},
		{Name: "b", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
	}
	if _, err := NewGraph(pes2, []Edge{{0, 1}}); err == nil {
		t.Fatal("duplicate alternate name accepted")
	}
	pes3 := []*PE{
		{Name: "a", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
		{Name: "b", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
	}
	if _, err := NewGraph(pes3, []Edge{{0, 1}, {0, 1}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestGraphValidateRequiresAlternate(t *testing.T) {
	pes := []*PE{{Name: "a"}, {Name: "b", Alternates: []Alternate{Alt("x", 1, 1, 1)}}}
	if _, err := NewGraph(pes, []Edge{{0, 1}}); err == nil {
		t.Fatal("PE without alternates accepted")
	}
}

func TestGraphValidateEdgeRange(t *testing.T) {
	pes := []*PE{
		{Name: "a", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
		{Name: "b", Alternates: []Alternate{Alt("x", 1, 1, 1)}},
	}
	if _, err := NewGraph(pes, []Edge{{0, 5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := NewGraph(nil, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestFig1Structure(t *testing.T) {
	g := Fig1Graph()
	if g.N() != 4 {
		t.Fatalf("want 4 PEs, got %d", g.N())
	}
	in, out := g.Inputs(), g.Outputs()
	if len(in) != 1 || g.PEs[in[0]].Name != "E1" {
		t.Fatalf("inputs = %v", in)
	}
	if len(out) != 1 || g.PEs[out[0]].Name != "E4" {
		t.Fatalf("outputs = %v", out)
	}
	if len(g.PEs[1].Alternates) != 2 || len(g.PEs[2].Alternates) != 2 {
		t.Fatal("E2/E3 must have two alternates each")
	}
	if got := len(g.Successors(in[0])); got != 2 {
		t.Fatalf("E1 successors = %d, want 2 (and-split)", got)
	}
	if got := len(g.Predecessors(out[0])); got != 2 {
		t.Fatalf("E4 predecessors = %d, want 2 (multi-merge)", got)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	for _, g := range []*Graph{Fig1Graph(), EvalGraph(), DiamondGraph()} {
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, g.N())
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.Edges {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("edge %d->%d violated in order %v", e.From, e.To, order)
			}
		}
	}
}

func TestForwardBFSStartsAtInputs(t *testing.T) {
	g := DiamondGraph()
	order := g.ForwardBFS()
	if len(order) != g.N() {
		t.Fatalf("BFS covered %d of %d PEs", len(order), g.N())
	}
	if g.PEs[order[0]].Name != "in" {
		t.Fatalf("forward BFS starts at %q", g.PEs[order[0]].Name)
	}
}

func TestSelectionValueAndValidate(t *testing.T) {
	g := Fig1Graph()
	sel := DefaultSelection(g)
	if err := sel.Validate(g); err != nil {
		t.Fatal(err)
	}
	// All default alternates have value 1.0. Fig. 1 has no choice groups,
	// so every PE is on the route and Γ is the mean over all four.
	if v, err := RoutedValue(g, sel, DefaultRouting(g)); err != nil || v != 1.0 {
		t.Fatalf("default value = %v (%v), want 1", v, err)
	}
	sel[1], sel[2] = 1, 1 // e2 for E2 (0.9) and E3 (0.8)
	want := (1.0 + 0.9 + 0.8 + 1.0) / 4
	if v, err := RoutedValue(g, sel, DefaultRouting(g)); err != nil || v != want {
		t.Fatalf("value = %v (%v), want %v", v, err, want)
	}
	bad := Selection{0, 0, 9, 0}
	if err := bad.Validate(g); err == nil {
		t.Fatal("out-of-range selection accepted")
	}
	short := Selection{0}
	if err := short.Validate(g); err == nil {
		t.Fatal("short selection accepted")
	}
}

func TestPropagateRatesFig1(t *testing.T) {
	g := Fig1Graph()
	sel := DefaultSelection(g)
	in := InputRates{0: 10}
	f, err := NewRoutedFlow(g, sel, DefaultRouting(g), in)
	if err != nil {
		t.Fatal(err)
	}
	inRate, outRate := f.InRates(), f.outRate
	// E1 sel=1.0 -> out 10, duplicated to E2 and E3 (10 each).
	if outRate[0] != 10 || inRate[1] != 10 || inRate[2] != 10 {
		t.Fatalf("E1 out=%v E2 in=%v E3 in=%v", outRate[0], inRate[1], inRate[2])
	}
	// E2 sel=1.0 -> 10; E3 sel=0.8 -> 8; E4 in = 18.
	if outRate[1] != 10 || outRate[2] != 8 {
		t.Fatalf("E2 out=%v E3 out=%v", outRate[1], outRate[2])
	}
	if inRate[3] != 18 || outRate[3] != 18 {
		t.Fatalf("E4 in=%v out=%v", inRate[3], outRate[3])
	}
}

func TestPropagateRatesRejectsBadInputs(t *testing.T) {
	g := Fig1Graph()
	sel, routing := DefaultSelection(g), DefaultRouting(g)
	if _, err := NewRoutedFlow(g, sel, routing, InputRates{1: 5}); err == nil {
		t.Fatal("rate on non-input PE accepted")
	}
	if _, err := NewRoutedFlow(g, sel, routing, InputRates{0: -5}); err == nil {
		t.Fatal("negative rate accepted")
	}
	for _, pe := range []int{42, -1} {
		if _, err := NewRoutedFlow(g, sel, routing, InputRates{pe: 5}); err == nil {
			t.Fatalf("out-of-range PE %d accepted", pe)
		}
	}
}

func TestCoreDemand(t *testing.T) {
	g := Fig1Graph()
	sel := DefaultSelection(g)
	f, err := NewRoutedFlow(g, sel, DefaultRouting(g), InputRates{0: 10})
	if err != nil {
		t.Fatal(err)
	}
	// demand = inRate * cost.
	want := []float64{10 * 0.30, 10 * 1.20, 10 * 1.50, 18 * 0.40}
	for i := range want {
		demand := f.InRates()[i] * sel.Alt(g, i).Cost
		if diff := demand - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("demand[%d] = %v, want %v", i, demand, want[i])
		}
	}
}

func TestDownstreamCostsChain(t *testing.T) {
	// a -> b -> c with selectivities 2, 1, 1: cost entering a must include
	// 2x the downstream of b.
	g := NewBuilder().
		AddPE("a", Alt("x", 1, 1.0, 2.0)).
		AddPE("b", Alt("x", 1, 3.0, 1.0)).
		AddPE("c", Alt("x", 1, 5.0, 1.0)).
		Chain("a", "b", "c").
		MustBuild()
	sel := DefaultSelection(g)
	costs, err := DownstreamCostsRoutedInto(g, sel, DefaultRouting(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	// c: 5; b: 3 + 1*5 = 8; a: 1 + 2*8 = 17.
	if costs[2][0] != 5 || costs[1][0] != 8 || costs[0][0] != 17 {
		t.Fatalf("costs = %v", costs)
	}
}

func TestDownstreamCostsExceedLocal(t *testing.T) {
	g := EvalGraph()
	sel := DefaultSelection(g)
	costs, err := DownstreamCostsRoutedInto(g, sel, DefaultRouting(g), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range g.PEs {
		for j, a := range p.Alternates {
			if len(g.Successors(i)) > 0 && costs[i][j] <= a.Cost {
				t.Fatalf("PE %q alt %q: global cost %v not above local %v", p.Name, a.Name, costs[i][j], a.Cost)
			}
			if len(g.Successors(i)) == 0 && costs[i][j] != a.Cost {
				t.Fatalf("sink PE %q: global cost %v != local %v", p.Name, costs[i][j], a.Cost)
			}
		}
	}
}

func TestMaxMinValue(t *testing.T) {
	g := Fig1Graph()
	if v := MaxValue(g); v != 1.0 {
		t.Fatalf("MaxValue = %v", v)
	}
	want := (1.0 + 0.9 + 0.8 + 1.0) / 4
	if v := MinValue(g); v != want {
		t.Fatalf("MinValue = %v, want %v", v, want)
	}
	if MaxValue(g) < MinValue(g) {
		t.Fatal("max < min")
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder().AddPE("a", Alt("x", 1, 1, 1)).Connect("a", "nope").Build(); err == nil {
		t.Fatal("unknown edge endpoint accepted")
	}
	if _, err := NewBuilder().AddPE("a", Alt("x", 1, 1, 1)).AddPE("a", Alt("x", 1, 1, 1)).Build(); err == nil {
		t.Fatal("duplicate AddPE accepted")
	}
	if _, err := NewBuilder().SetMsgBytes("ghost", 10).Build(); err == nil {
		t.Fatal("SetMsgBytes on unknown PE accepted")
	}
}

func TestBuilderMsgBytes(t *testing.T) {
	g := NewBuilder().
		DefaultMsgBytes(2048).
		AddPE("a", Alt("x", 1, 1, 1)).
		AddPE("b", Alt("x", 1, 1, 1)).
		SetMsgBytes("a", 512).
		Connect("a", "b").
		MustBuild()
	if g.MsgBytes(0) != 512 {
		t.Fatalf("MsgBytes(a) = %d", g.MsgBytes(0))
	}
	if g.MsgBytes(1) != 2048 {
		t.Fatalf("MsgBytes(b) = %d", g.MsgBytes(1))
	}
}

func TestAlternateIndex(t *testing.T) {
	g := Fig1Graph()
	if i := g.PEs[1].AlternateIndex("e2"); i != 1 {
		t.Fatalf("AlternateIndex(e2) = %d", i)
	}
	if i := g.PEs[1].AlternateIndex("ghost"); i != -1 {
		t.Fatalf("AlternateIndex(ghost) = %d", i)
	}
}

func TestGraphString(t *testing.T) {
	s := Fig1Graph().String()
	for _, want := range []string{"4 PEs", "4 edges", "E2[2]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(r *rand.Rand) *Graph {
	n := 2 + r.Intn(10)
	pes := make([]*PE, n)
	for i := range pes {
		alts := make([]Alternate, 1+r.Intn(3))
		for j := range alts {
			alts[j] = Alt(
				string(rune('a'+j)),
				0.1+0.9*r.Float64(),
				0.05+2*r.Float64(),
				0.1+1.9*r.Float64(),
			)
		}
		pes[i] = &PE{Name: "pe" + string(rune('A'+i)), Alternates: alts}
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.35 {
				edges = append(edges, Edge{i, j})
			}
		}
	}
	// Ensure connectivity to keep inputs/outputs nonempty: chain fallback.
	if len(edges) == 0 {
		for i := 0; i+1 < n; i++ {
			edges = append(edges, Edge{i, i + 1})
		}
	}
	g, err := NewGraph(pes, edges)
	if err != nil {
		// Forward-only edges can never cycle; any error is a bug.
		panic(err)
	}
	return g
}

func TestPropertyTopoOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(rand.New(rand.NewSource(seed)))
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		seen := make(map[int]bool, len(order))
		for _, v := range order {
			if v < 0 || v >= g.N() || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(order) == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRateConservation(t *testing.T) {
	// Property: with all selectivities forced to 1, total output rate at
	// sinks equals total external input scaled by path duplication. More
	// robustly: every PE's inRate equals the sum of its predecessors'
	// outRate, and outRate = inRate * selectivity.
	f := func(seed int64, rate float64) bool {
		rate = 1 + math.Abs(math.Mod(rate, 1)) // in [1,2)
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			rate = 1.5
		}
		g := randomDAG(rand.New(rand.NewSource(seed)))
		sel := DefaultSelection(g)
		in := InputRates{}
		for _, i := range g.Inputs() {
			in[i] = rate
		}
		flow, err := NewRoutedFlow(g, sel, DefaultRouting(g), in)
		if err != nil {
			return false
		}
		inRate, outRate := flow.InRates(), flow.outRate
		for i := range g.PEs {
			want := in[i]
			for _, p := range g.Predecessors(i) {
				want += outRate[p]
			}
			if diff := inRate[i] - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
			wantOut := inRate[i] * sel.Alt(g, i).Selectivity
			if diff := outRate[i] - wantOut; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDownstreamCostMonotone(t *testing.T) {
	// Property: the global cost of an alternate is at least its local cost,
	// and strictly increasing in selectivity when downstream work exists.
	f := func(seed int64) bool {
		g := randomDAG(rand.New(rand.NewSource(seed)))
		sel := DefaultSelection(g)
		costs, err := DownstreamCostsRoutedInto(g, sel, DefaultRouting(g), nil)
		if err != nil {
			return false
		}
		for i, p := range g.PEs {
			for j, a := range p.Alternates {
				if costs[i][j] < a.Cost-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyValueBounds(t *testing.T) {
	// Property: Gamma of any valid selection lies in [MinValue, MaxValue].
	// randomDAG has no choice groups, so every PE is on the route.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAG(r)
		sel := DefaultSelection(g)
		for i := range sel {
			sel[i] = r.Intn(len(g.PEs[i].Alternates))
		}
		v, err := RoutedValue(g, sel, DefaultRouting(g))
		return err == nil && v >= MinValue(g)-1e-12 && v <= MaxValue(g)+1e-12 && v > 0 && v <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
