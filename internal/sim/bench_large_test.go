package sim

import (
	"context"
	"fmt"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
)

// largeLayeredDAG builds a levels x width layered graph (level 0 PEs are the
// inputs). Each PE in level L>0 reads from the same column of level L-1, and
// every other PE also reads a neighbouring column, so PEs have mixed fan-in.
func largeLayeredDAG(levels, width int) *dataflow.Graph {
	b := dataflow.NewBuilder()
	name := func(level, col int) string { return fmt.Sprintf("pe_%d_%d", level, col) }
	for level := 0; level < levels; level++ {
		for col := 0; col < width; col++ {
			b.AddPE(name(level, col), dataflow.Alt("only", 1, 0.05, 1))
		}
	}
	for level := 1; level < levels; level++ {
		for col := 0; col < width; col++ {
			b.Connect(name(level-1, col), name(level, col))
			if col%2 == 0 {
				b.Connect(name(level-1, (col+1)%width), name(level, col))
			}
		}
	}
	return b.MustBuild()
}

// largeDAGConfig wires a 1000-PE layered DAG with a constant trickle on every
// input and a practically unbounded horizon so benchmarks can step freely.
func largeDAGConfig(levels, width int) Config {
	g := largeLayeredDAG(levels, width)
	inputs := make(map[int]rates.Profile, width)
	for _, pe := range g.Inputs() {
		c, err := rates.NewConstant(1)
		if err != nil {
			panic(err)
		}
		inputs[pe] = c
	}
	return Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     inputs,
		HorizonSec: 60 << 32,
	}
}

// deployLargeDAG packs PEs four per m1.xlarge, one dedicated core each.
func deployLargeDAG(v *View, act Control) error {
	n := v.Graph().N()
	vmID := -1
	for pe := 0; pe < n; pe++ {
		if pe%4 == 0 {
			id, err := act.AcquireVM("m1.xlarge")
			if err != nil {
				return err
			}
			vmID = id
		}
		if err := act.AssignCores(pe, vmID, 1); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkEngineStepLargeDAG measures steady-state stepping on a 1000-PE
// layered DAG (50 levels x 20 columns, 250 VMs).
func BenchmarkEngineStepLargeDAG(b *testing.B) {
	b.Run("steady", func(b *testing.B) {
		e, err := NewEngine(largeDAGConfig(50, 20))
		if err != nil {
			b.Fatal(err)
		}
		// Deploy only (untilSec == clock), then warm the monitors so the
		// benchmark loop measures pure steady-state stepping.
		if err := e.RunUntil(context.Background(), &fixed{deploy: deployLargeDAG}, 0); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := e.step(); err != nil {
				b.Fatal(err)
			}
		}
		e.Collector().Reserve(b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
