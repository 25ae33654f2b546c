package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referencePropagateRatesRouted and referenceDownstreamCostsRouted are the
// one-shot routed propagation and the two-pass downstream-cost DP (which
// RouteCosts also ran) as they were before RoutedFlow.Prepare and
// DownstreamCostsRoutedInto reused buffers, kept as the reference
// TestRoutedBufferReuseMatchesReference diffs against.
func referencePropagateRatesRouted(g *Graph, sel Selection, routing Routing, in InputRates) (inRate, outRate []float64, err error) {
	if err := sel.Validate(g); err != nil {
		return nil, nil, err
	}
	if err := routing.Validate(g); err != nil {
		return nil, nil, err
	}
	order, err := g.kahn()
	if err != nil {
		return nil, nil, err
	}
	inRate = make([]float64, g.N())
	outRate = make([]float64, g.N())
	for pe, r := range in {
		if pe < 0 || pe >= g.N() || len(g.Predecessors(pe)) != 0 || r < 0 {
			return nil, nil, fmt.Errorf("dataflow: bad input rate %v on PE %d", r, pe)
		}
		inRate[pe] = r
	}
	for _, v := range order {
		outRate[v] = inRate[v] * sel.Alt(g, v).Selectivity
		for _, w := range g.ActiveSuccessors(v, routing) {
			inRate[w] += outRate[v]
		}
	}
	return inRate, outRate, nil
}

// referenceDownstreamCostsRouted also returns the per-PE node costs, which
// RouteCosts read for a group's targets.
func referenceDownstreamCostsRouted(g *Graph, sel Selection, routing Routing) (costs [][]float64, nodeCost []float64, err error) {
	if err := sel.Validate(g); err != nil {
		return nil, nil, err
	}
	if err := routing.Validate(g); err != nil {
		return nil, nil, err
	}
	order, err := g.kahn()
	if err != nil {
		return nil, nil, err
	}
	nodeCost = make([]float64, g.N())
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		a := sel.Alt(g, v)
		down := 0.0
		for _, w := range g.ActiveSuccessors(v, routing) {
			down += nodeCost[w]
		}
		nodeCost[v] = a.Cost + a.Selectivity*down
	}
	costs = make([][]float64, g.N())
	for i, p := range g.PEs {
		costs[i] = make([]float64, len(p.Alternates))
		down := 0.0
		for _, w := range g.ActiveSuccessors(i, routing) {
			down += nodeCost[w]
		}
		for j, a := range p.Alternates {
			costs[i][j] = a.Cost + a.Selectivity*down
		}
	}
	return costs, nodeCost, nil
}

// randomRoutedDAG is randomDAG with, on about half the graphs, choice groups
// over the successors of PEs that have at least two, no PE a target of two
// groups.
func randomRoutedDAG(r *rand.Rand) *Graph {
	g := randomDAG(r)
	if r.Intn(2) == 0 {
		return g
	}
	claimed := make([]bool, g.N())
	for pe := 0; pe < g.N(); pe++ {
		var free []int
		for _, s := range g.Successors(pe) {
			if !claimed[s] {
				free = append(free, s)
			}
		}
		if len(free) < 2 || r.Intn(3) == 0 {
			continue
		}
		r.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		targets := free[:2+r.Intn(len(free)-1)]
		for _, t := range targets {
			claimed[t] = true
		}
		g.Choices = append(g.Choices, ChoiceGroup{
			Name: fmt.Sprintf("c%d", len(g.Choices)), From: pe, Targets: append([]int(nil), targets...)})
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRoutedBufferReuseMatchesReference drives one RoutedFlow and one set of
// cost rows through random graphs of different sizes, with and without
// choice groups, in random order under random selections, routings and
// input rates (some zero), and requires the in-place results — uncapped
// rates, downstream costs, route costs and capped passes — to equal the
// one-shot ones bit for bit. Stale contents of a larger earlier graph would
// show here.
func TestRoutedBufferReuseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := make([]*Graph, 24)
	choices := 0
	for i := range graphs {
		graphs[i] = randomRoutedDAG(rng)
		if len(graphs[i].Choices) > 0 {
			choices++
		}
	}
	if choices == 0 || choices == len(graphs) {
		t.Fatalf("%d of %d random graphs have choice groups; want some of each", choices, len(graphs))
	}
	var flow RoutedFlow
	var costs [][]float64
	for trial := 0; trial < 600; trial++ {
		g := graphs[rng.Intn(len(graphs))]
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
			if rng.Intn(4) != 0 {
				in[pe] = rng.Float64() * 40
			} else {
				in[pe] = 0
			}
		}

		wantIn, wantOut, err := referencePropagateRatesRouted(g, sel, routing, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := flow.Prepare(g, sel, routing, in); err != nil {
			t.Fatal(err)
		}
		if !sameBits(flow.InRates(), wantIn) || !sameBits(flow.outRate, wantOut) {
			t.Fatalf("trial %d: reused flow rates in %v out %v, reference in %v out %v",
				trial, flow.InRates(), flow.outRate, wantIn, wantOut)
		}

		wantCosts, wantNode, err := referenceDownstreamCostsRouted(g, sel, routing)
		if err != nil {
			t.Fatal(err)
		}
		costs, err = DownstreamCostsRoutedInto(g, sel, routing, costs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := DownstreamCostsRoutedInto(g, sel, routing, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(costs) != g.N() || len(fresh) != g.N() {
			t.Fatalf("trial %d: %d reused and %d fresh cost rows for %d PEs", trial, len(costs), len(fresh), g.N())
		}
		for pe := range wantCosts {
			if !sameBits(costs[pe], wantCosts[pe]) || !sameBits(fresh[pe], wantCosts[pe]) {
				t.Fatalf("trial %d PE %d: reused costs %v, fresh %v, reference %v",
					trial, pe, costs[pe], fresh[pe], wantCosts[pe])
			}
		}
		for gi, c := range g.Choices {
			routeCosts, err := RouteCosts(g, sel, routing, gi)
			if err != nil {
				t.Fatal(err)
			}
			for i, target := range c.Targets {
				if math.Float64bits(routeCosts[i]) != math.Float64bits(wantNode[target]) {
					t.Fatalf("trial %d group %d: route cost %v into PE %d, reference %v",
						trial, gi, routeCosts[i], target, wantNode[target])
				}
			}
		}

		freshFlow, err := NewRoutedFlow(g, sel, routing, in)
		if err != nil {
			t.Fatal(err)
		}
		caps := make([]float64, g.N()-rng.Intn(2))
		for i := range caps {
			caps[i] = rng.Float64() * 30
		}
		wantOmega, wantTh := freshFlow.Capped(caps)
		omega, th := flow.Capped(caps)
		if math.Float64bits(omega) != math.Float64bits(wantOmega) || !sameBits(th, wantTh) {
			t.Fatalf("trial %d: reused capped pass omega %v th %v, fresh %v %v", trial, omega, th, wantOmega, wantTh)
		}
	}
}
