// Command dfgraph validates and describes a dynamic dataflow written in
// the canonical graph JSON format, and can emit the built-in reference
// graphs as starting points.
//
// Usage:
//
//	dfgraph -validate mygraph.json
//	dfgraph -emit fig1 > fig1.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dynamicdf"
	"dynamicdf/internal/dataflow"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dfgraph: ")
	validate := flag.String("validate", "", "graph JSON file to validate and describe")
	emit := flag.String("emit", "", "emit a reference graph: fig1 | eval | layered")
	rate := flag.Float64("rate", 10, "input rate (msg/s) used for the demand summary")
	flag.Parse()

	switch {
	case *emit != "":
		var g *dynamicdf.Graph
		switch *emit {
		case "fig1":
			g = dynamicdf.Fig1Graph()
		case "eval":
			g = dynamicdf.EvalGraph()
		case "layered":
			g = dataflow.LayeredGraph(4, 2, 5)
		default:
			log.Fatalf("unknown reference graph %q", *emit)
		}
		if err := g.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	case *validate != "":
		f, err := os.Open(*validate)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		g, err := dynamicdf.ReadGraphJSON(f)
		if err != nil {
			log.Fatalf("INVALID: %v", err)
		}
		describe(g, *rate)
	default:
		log.Fatal("need -validate FILE or -emit NAME")
	}
}

func describe(g *dynamicdf.Graph, rate float64) {
	fmt.Println("VALID:", g)
	order, err := g.TopoOrder()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("topological order: ")
	for i, pe := range order {
		if i > 0 {
			fmt.Print(" -> ")
		}
		fmt.Print(g.PEs[pe].Name)
	}
	fmt.Println()
	ins, outs := g.Inputs(), g.Outputs()
	fmt.Printf("inputs: %d, outputs: %d, choice groups: %d\n", len(ins), len(outs), len(g.Choices))
	fmt.Printf("application value range: [%.3f, %.3f]\n",
		dataflow.MinValue(g), dataflow.MaxValue(g))

	// Demand summary at the given rate, default alternates and routes: a
	// PE's standard-core demand is its arrival rate times its cost.
	sel := dataflow.DefaultSelection(g)
	in := dataflow.InputRates{}
	for _, pe := range ins {
		in[pe] = rate / float64(len(ins))
	}
	flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), in)
	if err != nil {
		log.Fatal(err)
	}
	total := 0.0
	fmt.Printf("standard-core demand at %.0f msg/s (default alternates):\n", rate)
	for pe, r := range flow.InRates() {
		d := r * sel.Alt(g, pe).Cost
		fmt.Printf("  %-16s %6.2f cores\n", g.PEs[pe].Name, d)
		total += d
	}
	fmt.Printf("  %-16s %6.2f cores (~%.2f m1.xlarge)\n", "TOTAL", total, total/8)
}
