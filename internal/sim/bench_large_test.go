package sim

import (
	"context"
	"fmt"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/state"
	"dynamicdf/internal/trace"
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
// layered DAG (50 levels x 20 columns, 250 VMs): /steady on an ideal cloud,
// /replayed on the default replayed one (trace seed 1), whose CPU
// coefficients and link bandwidths vary.
func BenchmarkEngineStepLargeDAG(b *testing.B) {
	for _, infra := range []struct {
		name string
		perf func() trace.Provider
	}{
		{"steady", func() trace.Provider { return nil }},
		{"replayed", func() trace.Provider { return trace.MustReplayed(trace.ReplayedConfig{Seed: 1}) }},
	} {
		b.Run(infra.name, func(b *testing.B) {
			cfg := largeDAGConfig(50, 20)
			cfg.Perf = infra.perf()
			e, err := NewEngine(cfg)
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
}

// BenchmarkCheckpoint measures the checkpoint layer on
// BenchmarkEngineStepLargeDAG's /replayed run after 30 intervals (1,000
// PEs on 250 VMs). One op of /checkpoint is one Engine.Checkpoint, of
// /encode one state.Encode of that snapshot, of /decode one state.Decode
// of its encoding, and of /restore one Restore of the decoded snapshot.
func BenchmarkCheckpoint(b *testing.B) {
	cfg := largeDAGConfig(50, 20)
	cfg.Perf = trace.MustReplayed(trace.ReplayedConfig{Seed: 1})
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.RunUntil(context.Background(), &fixed{deploy: deployLargeDAG}, 30*e.cfg.IntervalSec); err != nil {
		b.Fatal(err)
	}
	snap, err := e.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	blob, err := state.Encode(snap)
	if err != nil {
		b.Fatal(err)
	}
	dec, err := state.Decode(blob)
	if err != nil {
		b.Fatal(err)
	}
	for _, layer := range []struct {
		name string
		op   func() error
	}{
		{"checkpoint", func() error { _, err := e.Checkpoint(); return err }},
		{"encode", func() error { _, err := state.Encode(snap); return err }},
		{"decode", func() error { _, err := state.Decode(blob); return err }},
		{"restore", func() error { _, err := Restore(dec, cfg); return err }},
	} {
		b.Run(layer.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := layer.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "snapshot-bytes")
		})
	}
}
