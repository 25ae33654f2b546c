package dataflow

import (
	"math"
	"math/rand"
	"testing"
)

func TestPropagateCappedThrottles(t *testing.T) {
	g := Fig1Graph()
	sel := DefaultSelection(g)
	in := InputRates{0: 10}
	// E2 capped to 4 msg/s, everyone else unconstrained.
	caps := []float64{100, 4, 100, 100}
	f, err := NewRoutedFlow(g, sel, DefaultRouting(g), in)
	if err != nil {
		t.Fatal(err)
	}
	f.Capped(caps)
	inR, outR := f.arr, f.got
	if outR[1] != 4 {
		t.Fatalf("E2 out = %v, want 4", outR[1])
	}
	// E3 unconstrained: 10 * 0.8 = 8; E4 arrival = 4 + 8.
	if outR[2] != 8 || inR[3] != 12 {
		t.Fatalf("E3 out = %v, E4 in = %v", outR[2], inR[3])
	}
}

func TestPredictOmegaMatchesBottleneckRatio(t *testing.T) {
	g := Fig1Graph()
	sel := DefaultSelection(g)
	in := InputRates{0: 10}
	// Uncapped expectation at E4: 18 msg/s. Cap E2 at half its arrival:
	// observed at E4 = 5 + 8 = 13 -> omega 13/18.
	caps := []float64{100, 5, 100, 100}
	f, err := NewRoutedFlow(g, sel, DefaultRouting(g), in)
	if err != nil {
		t.Fatal(err)
	}
	if om, _ := f.Capped(caps); math.Abs(om-13.0/18.0) > 1e-12 {
		t.Fatalf("omega = %v, want %v", om, 13.0/18.0)
	}
	// Ample capacity: omega = 1.
	if om, _ := f.Capped([]float64{100, 100, 100, 100}); om != 1 {
		t.Fatalf("ample omega = %v", om)
	}
	// Zero input: omega defined as 1.
	if err := f.Prepare(g, sel, DefaultRouting(g), InputRates{0: 0}); err != nil {
		t.Fatal(err)
	}
	if om, _ := f.Capped(caps); om != 1 {
		t.Fatalf("zero-input omega = %v", om)
	}
}

func TestPEThroughputsRankBottleneck(t *testing.T) {
	g := Fig1Graph()
	sel := DefaultSelection(g)
	in := InputRates{0: 10}
	caps := []float64{100, 2, 100, 100}
	f, err := NewRoutedFlow(g, sel, DefaultRouting(g), in)
	if err != nil {
		t.Fatal(err)
	}
	_, th := f.Capped(caps)
	if th[1] != 0.2 {
		t.Fatalf("E2 throughput = %v, want 0.2", th[1])
	}
	if th[0] != 1 || th[2] != 1 {
		t.Fatalf("unthrottled PEs = %v / %v", th[0], th[2])
	}
	// E4's arrival is already reduced; it processes all of it -> 1.
	if th[3] != 1 {
		t.Fatalf("E4 throughput = %v", th[3])
	}
	// The bottleneck is the minimum.
	min := 1.0
	for _, v := range th {
		if v < min {
			min = v
		}
	}
	if min != th[1] {
		t.Fatal("bottleneck ranking wrong")
	}
}

func TestRoutedCappedVariants(t *testing.T) {
	g := choiceGraph()
	sel := DefaultSelection(g)
	in := InputRates{0: 10}
	caps := make([]float64, g.N())
	for i := range caps {
		caps[i] = 100
	}
	f, err := NewRoutedFlow(g, sel, Routing{1}, in)
	if err != nil {
		t.Fatal(err)
	}
	_, th := f.Capped(caps)
	// Inactive deep path has no arrivals -> throughput 1 by definition.
	if th[1] != 1 || th[2] != 1 {
		t.Fatalf("inactive path throughputs = %v / %v", th[1], th[2])
	}
	costs, err := DownstreamCostsRoutedInto(g, sel, Routing{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Under the shallow route, in's downstream excludes the deep path:
	// cost(in) = 0.1 + 1*(shallow 0.4 + out 0.1) = 0.6.
	if math.Abs(costs[0][0]-0.6) > 1e-12 {
		t.Fatalf("routed downstream cost = %v, want 0.6", costs[0][0])
	}
	// Under the deep route it includes both stages: 0.1 + (1.2 + 1.0 + 0.1).
	costsDeep, err := DownstreamCostsRoutedInto(g, sel, Routing{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(costsDeep[0][0]-2.4) > 1e-12 {
		t.Fatalf("deep downstream cost = %v, want 2.4", costsDeep[0][0])
	}
}

func TestSelectionAndRoutingClone(t *testing.T) {
	g := choiceGraph()
	sel := DefaultSelection(g)
	cl := sel.Clone()
	cl[0] = 0
	sel[0] = 0
	r := DefaultRouting(g)
	rc := r.Clone()
	rc[0] = 1
	if r[0] == rc[0] {
		t.Fatal("routing clone shares storage")
	}
}

func TestLayeredGraphShape(t *testing.T) {
	g := LayeredGraph(3, 2, 4)
	// ingest + sink + 3*2 stages.
	if g.N() != 8 {
		t.Fatalf("N = %d", g.N())
	}
	if len(g.Inputs()) != 1 || len(g.Outputs()) != 1 {
		t.Fatal("inputs/outputs wrong")
	}
	for _, p := range g.PEs {
		if p.Name != "ingest" && p.Name != "sink" && len(p.Alternates) != 4 {
			t.Fatalf("%s has %d alternates", p.Name, len(p.Alternates))
		}
	}
	// Degenerate parameters clamp.
	g2 := LayeredGraph(0, 0, 0)
	if g2.N() != 3 {
		t.Fatalf("clamped N = %d", g2.N())
	}
	// The value ladder stays within (0, 1] and costs positive.
	for _, p := range g.PEs {
		for _, a := range p.Alternates {
			if a.Value <= 0 || a.Value > 1 || a.Cost <= 0 {
				t.Fatalf("bad ladder entry %+v", a)
			}
		}
	}
}

// referencePredictOmegaRouted and referencePEThroughputsRouted are the
// one-shot capped passes that RoutedFlow replaced, kept as the reference
// TestRoutedFlowMatchesReference diffs against. They validate their inputs
// and take the uncapped rates through referencePropagateRatesRouted, which
// folds over ActiveSuccessors on its own, so no code of RoutedFlow's is on
// the reference side.
func referencePredictOmegaRouted(g *Graph, sel Selection, routing Routing, in InputRates, capacity []float64) (float64, error) {
	_, exp, err := referencePropagateRatesRouted(g, sel, routing, in)
	if err != nil {
		return 0, err
	}
	order, err := g.kahn()
	if err != nil {
		return 0, err
	}
	arr := make([]float64, g.N())
	got := make([]float64, g.N())
	for pe, r := range in {
		arr[pe] = r
	}
	for _, v := range order {
		p := arr[v]
		if v < len(capacity) && p > capacity[v] {
			p = capacity[v]
		}
		got[v] = p * sel.Alt(g, v).Selectivity
		for _, w := range g.ActiveSuccessors(v, routing) {
			arr[w] += got[v]
		}
	}
	outs := g.Outputs()
	omega := 0.0
	for _, pe := range outs {
		if exp[pe] <= 0 {
			omega++
			continue
		}
		r := got[pe] / exp[pe]
		if r > 1 {
			r = 1
		}
		omega += r
	}
	return omega / float64(len(outs)), nil
}

func referencePEThroughputsRouted(g *Graph, sel Selection, routing Routing, in InputRates, capacity []float64) ([]float64, error) {
	if _, _, err := referencePropagateRatesRouted(g, sel, routing, in); err != nil {
		return nil, err
	}
	order, err := g.kahn()
	if err != nil {
		return nil, err
	}
	arr := make([]float64, g.N())
	for pe, r := range in {
		arr[pe] = r
	}
	th := make([]float64, g.N())
	processedOut := make([]float64, g.N())
	for _, v := range order {
		p := arr[v]
		if v < len(capacity) && p > capacity[v] {
			p = capacity[v]
		}
		processedOut[v] = p * sel.Alt(g, v).Selectivity
		for _, w := range g.ActiveSuccessors(v, routing) {
			arr[w] += processedOut[v]
		}
	}
	for v := range th {
		if arr[v] <= 0 {
			th[v] = 1
			continue
		}
		p := arr[v]
		if v < len(capacity) && p > capacity[v] {
			p = capacity[v]
		}
		th[v] = p / arr[v]
	}
	return th, nil
}

// TestRoutedFlowMatchesReference scores random capacity vectors — some
// short, most throttling a few PEs — through one reused RoutedFlow and
// through the one-shot reference passes, and requires bit-equal Ω and
// per-PE throughputs across selections, routings and input rates. Every
// seventh trial adds a bad input rate (on a PE out of range either side,
// on a non-input PE, or negative), which both sides must reject.
func TestRoutedFlowMatchesReference(t *testing.T) {
	twoChoices := NewBuilder().
		AddPE("in", Alt("e", 1, 0.1, 1.3)).
		AddPE("a", Alt("x", 1, 0.7, 0.8), Alt("y", 0.8, 0.3, 1.1)).
		AddPE("b", Alt("e", 0.9, 0.5, 0.6)).
		AddPE("c", Alt("e", 1, 1.1, 1.7)).
		AddPE("d", Alt("e", 1, 0.9, 0.9), Alt("f", 0.7, 0.2, 0.4)).
		AddPE("e", Alt("e", 1, 0.4, 1)).
		AddPE("out", Alt("e", 1, 0.1, 1)).
		AddPE("tap", Alt("e", 1, 0.1, 1)).
		AddChoice("first", "in", "a", "b").
		Connect("in", "d").
		Connect("a", "c").
		Connect("b", "c").
		AddChoice("second", "c", "e", "out").
		Connect("e", "out").
		Connect("d", "out").
		Connect("d", "tap").
		MustBuild()
	graphs := []*Graph{Fig1Graph(), EvalGraph(), DiamondGraph(), LayeredGraph(5, 3, 3), choiceGraph(), twoChoices}
	badRates := []string{"negative", "non-input", "below range", "above range"}
	rng := rand.New(rand.NewSource(7))
	for gi, g := range graphs {
		for trial := 0; trial < 40; trial++ {
			sel := DefaultSelection(g)
			for pe := range sel {
				sel[pe] = rng.Intn(len(g.PEs[pe].Alternates))
			}
			routing := DefaultRouting(g)
			for i, c := range g.Choices {
				routing[i] = rng.Intn(len(c.Targets))
			}
			in := InputRates{}
			for _, pe := range g.Inputs() {
				if trial%5 != 0 {
					in[pe] = rng.Float64() * 40
				} else {
					in[pe] = 0
				}
			}
			if trial%7 == 3 {
				switch bad := badRates[rng.Intn(len(badRates))]; bad {
				case "negative":
					in[g.Inputs()[0]] = -1 - rng.Float64()
				case "non-input":
					in[g.Outputs()[0]] = 1
				case "below range":
					in[-1] = 1
				case "above range":
					in[g.N()] = 1
				}
				_, err := NewRoutedFlow(g, sel, routing, in)
				_, refErr := referencePredictOmegaRouted(g, sel, routing, in, nil)
				_, thErr := referencePEThroughputsRouted(g, sel, routing, in, nil)
				if err == nil || refErr == nil || thErr == nil {
					t.Fatalf("graph %d trial %d: bad input rates %v accepted: flow %v, reference %v / %v", gi, trial, in, err, refErr, thErr)
				}
				continue
			}
			f, err := NewRoutedFlow(g, sel, routing, in)
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 6; pass++ {
				caps := make([]float64, g.N()-rng.Intn(2))
				for i := range caps {
					caps[i] = rng.Float64() * 30
				}
				omega, th := f.Capped(caps)
				wantOmega, err := referencePredictOmegaRouted(g, sel, routing, in, caps)
				if err != nil {
					t.Fatal(err)
				}
				wantTh, err := referencePEThroughputsRouted(g, sel, routing, in, caps)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(omega) != math.Float64bits(wantOmega) {
					t.Fatalf("graph %d trial %d pass %d: omega %v, reference %v", gi, trial, pass, omega, wantOmega)
				}
				for pe := range wantTh {
					if math.Float64bits(th[pe]) != math.Float64bits(wantTh[pe]) {
						t.Fatalf("graph %d trial %d pass %d: PE %d throughput %v, reference %v", gi, trial, pass, pe, th[pe], wantTh[pe])
					}
				}
			}
		}
	}
}
