package dataflow

import (
	"encoding/json"
	"testing"
)

// FuzzGraphJSON checks the graph parser never panics and that anything it
// accepts satisfies the structural invariants.
func FuzzGraphJSON(f *testing.F) {
	seed, err := json.Marshal(Fig1Graph())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	choiceSeed, err := json.Marshal(choiceGraph())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(choiceSeed))
	f.Add(`{"pes":[],"edges":[]}`)
	f.Add(`{"pes":[{"name":"a","alternates":[{"name":"x","value":1,"cost":1,"selectivity":1}]}],"edges":[["a","a"]]}`)
	f.Add(`not json`)
	f.Fuzz(func(t *testing.T, in string) {
		var g Graph
		if err := json.Unmarshal([]byte(in), &g); err != nil {
			return
		}
		// Anything accepted is a valid DAG with inputs and outputs.
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("accepted graph has no topo order: %v", err)
		}
		if len(order) != g.N() {
			t.Fatalf("topo covers %d of %d", len(order), g.N())
		}
		if len(g.Inputs()) == 0 || len(g.Outputs()) == 0 {
			t.Fatal("accepted graph without inputs/outputs")
		}
		// Propagation cannot fail on a valid graph.
		in2 := InputRates{}
		for _, pe := range g.Inputs() {
			in2[pe] = 1
		}
		if _, err := NewRoutedFlow(&g, DefaultSelection(&g), DefaultRouting(&g), in2); err != nil {
			t.Fatalf("propagation failed: %v", err)
		}
	})
}
