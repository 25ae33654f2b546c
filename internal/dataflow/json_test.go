package dataflow

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	for _, orig := range []*Graph{Fig1Graph(), EvalGraph(), DiamondGraph(), choiceGraph()} {
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		var got Graph
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("%s: %v", orig, err)
		}
		if got.N() != orig.N() || len(got.Edges) != len(orig.Edges) || len(got.Choices) != len(orig.Choices) {
			t.Fatalf("shape changed: %s -> %s", orig, &got)
		}
		for i, p := range orig.PEs {
			q := got.PEs[i]
			if p.Name != q.Name || len(p.Alternates) != len(q.Alternates) {
				t.Fatalf("PE %d changed: %+v vs %+v", i, p, q)
			}
			for j := range p.Alternates {
				if p.Alternates[j] != q.Alternates[j] {
					t.Fatalf("alternate %d/%d changed", i, j)
				}
			}
		}
		// Propagation behaves identically.
		sel := DefaultSelection(orig)
		in := InputRates{}
		for _, pe := range orig.Inputs() {
			in[pe] = 7
		}
		a, err := NewRoutedFlow(orig, sel, DefaultRouting(orig), in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRoutedFlow(&got, sel, DefaultRouting(&got), in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.outRate {
			if a.outRate[i] != b.outRate[i] {
				t.Fatalf("propagation changed at PE %d", i)
			}
		}
	}
}

func TestGraphWriteReadJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig1Graph().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"name\": \"E1\"") {
		t.Fatalf("not indented canonical form:\n%s", buf.String())
	}
	g, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
}

func TestGraphJSONRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"garbage":    `{"pes": "nope"}`,
		"no pes":     `{"pes": [], "edges": []}`,
		"bad edge":   `{"pes": [{"name":"a","alternates":[{"name":"x","value":1,"cost":1,"selectivity":1}]}], "edges": [["a","ghost"]]}`,
		"cycle":      `{"pes": [{"name":"a","alternates":[{"name":"x","value":1,"cost":1,"selectivity":1}]},{"name":"b","alternates":[{"name":"x","value":1,"cost":1,"selectivity":1}]}], "edges": [["a","b"],["b","a"]]}`,
		"bad values": `{"pes": [{"name":"a","alternates":[{"name":"x","value":2,"cost":1,"selectivity":1}]}], "edges": []}`,
	}
	for name, in := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(in), &g); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
