package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/rates"
)

// randomPipelineDAG builds a random layered DAG with unit selectivities.
func randomPipelineDAG(rng *rand.Rand) *dataflow.Graph {
	n := 3 + rng.Intn(6)
	pes := make([]*dataflow.PE, n)
	for i := range pes {
		pes[i] = &dataflow.PE{
			Name: "pe" + string(rune('A'+i)),
			Alternates: []dataflow.Alternate{
				dataflow.Alt("only", 1, 0.05+rng.Float64()*0.4, 1),
			},
		}
	}
	var edges []dataflow.Edge
	for i := 1; i < n; i++ {
		// Every PE after the first gets at least one upstream edge, so
		// there is exactly one input component and no orphans.
		from := rng.Intn(i)
		edges = append(edges, dataflow.Edge{From: from, To: i})
		if rng.Float64() < 0.3 && i >= 2 {
			other := rng.Intn(i)
			if other != from {
				edges = append(edges, dataflow.Edge{From: other, To: i})
			}
		}
	}
	g, err := dataflow.NewGraph(pes, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// TestPropertyAmpleCapacityGivesFullThroughput: for random DAGs with ample
// per-PE capacity on an ideal cloud, every interval must report omega = 1
// and zero backlog — the conservation invariant of the flow computation.
func TestPropertyAmpleCapacityGivesFullThroughput(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomPipelineDAG(rng)
		rate := 1 + rng.Float64()*5
		profiles := map[int]rates.Profile{}
		for _, pe := range g.Inputs() {
			c, err := rates.NewConstant(rate)
			if err != nil {
				t.Fatal(err)
			}
			profiles[pe] = c
		}
		cfg := Config{
			Graph:      g,
			Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
			Inputs:     profiles,
			HorizonSec: 1800,
			MaxVMs:     256,
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
			// One xlarge per PE: 8 ECU each, far beyond any demand here.
			for pe := 0; pe < g.N(); pe++ {
				id, err := act.AcquireVM("m1.xlarge")
				if err != nil {
					return err
				}
				if err := act.AssignCores(pe, id, 4); err != nil {
					return err
				}
			}
			return nil
		}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if math.Abs(sum.MeanOmega-1) > 1e-9 {
			t.Fatalf("seed %d (%s): omega %v with ample capacity", seed, g, sum.MeanOmega)
		}
		if sum.MeanBacklog > 1e-9 {
			t.Fatalf("seed %d: backlog %v with ample capacity", seed, sum.MeanBacklog)
		}
		// Output rate at sinks equals the propagated expectation.
		sel := dataflow.DefaultSelection(g)
		in := dataflow.InputRates{}
		for pe := range profiles {
			in[pe] = rate
		}
		flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), in)
		if err != nil {
			t.Fatal(err)
		}
		wantOut := 0.0
		for _, pe := range g.Outputs() {
			wantOut += flow.InRates()[pe] * sel.Alt(g, pe).Selectivity
		}
		pts := e.Collector().Points()
		got := pts[len(pts)-1].OutputRate
		if math.Abs(got-wantOut) > 1e-6*(1+wantOut) {
			t.Fatalf("seed %d: output %v, expected %v", seed, got, wantOut)
		}
	}
}

// TestPropertyInvariantsHoldAcrossSeeds runs every randomized DAG with the
// invariant checker in strict mode across 36 seeds, cycling the simulator's
// harder paths: scarce capacity (queues build), VM crashes, a mid-run
// scale-up that drains backlog, and cooperative cancellation. Any violated
// conservation law aborts the run and fails the seed.
func TestPropertyInvariantsHoldAcrossSeeds(t *testing.T) {
	const interval = int64(60)
	for seed := int64(0); seed < 36; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1000 + seed))
			g := randomPipelineDAG(rng)
			rate := 1 + rng.Float64()*8
			profiles := map[int]rates.Profile{}
			for _, pe := range g.Inputs() {
				c, err := rates.NewConstant(rate)
				if err != nil {
					t.Fatal(err)
				}
				profiles[pe] = c
			}
			cfg := Config{
				Graph:      g,
				Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
				Inputs:     profiles,
				HorizonSec: 3600,
				Seed:       seed,
				MaxVMs:     256,
				Checker:    invariant.NewStrict(),
			}
			faulty := seed%2 == 1
			if faulty {
				cfg.Failures = ExponentialFailures{MTBFSec: 1200, Seed: seed}
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Deploy scarce: one m1.small core per PE, so expensive PEs
			// backlog. Halfway through, the drain path kicks in: an
			// m1.xlarge per PE clears the queues.
			scaledUp := false
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			canceling := seed%8 == 3
			sched := &fixed{
				deploy: func(v *View, act Control) error {
					for pe := 0; pe < g.N(); pe++ {
						id, err := act.AcquireVM("m1.small")
						if err != nil {
							return err
						}
						if err := act.AssignCores(pe, id, 1); err != nil {
							return err
						}
					}
					return nil
				},
				adapt: func(v *View, act Control) error {
					if canceling && e.Now() >= 10*interval {
						cancel()
						return nil
					}
					if !scaledUp && e.Now() >= 1800 {
						scaledUp = true
						for pe := 0; pe < g.N(); pe++ {
							id, err := act.AcquireVM("m1.xlarge")
							if err != nil {
								return err
							}
							if err := act.AssignCores(pe, id, 4); err != nil {
								return err
							}
						}
					}
					return nil
				},
			}
			_, err = e.RunContext(ctx, sched)
			switch {
			case canceling:
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("canceled run returned %v", err)
				}
			case err != nil:
				if v, ok := invariant.As(err); ok {
					t.Fatalf("law %q violated at t=%ds: %s", v.Law, v.Sec, v.Msg)
				}
				t.Fatal(err)
			}
			if n := e.InvariantViolations(); n != 0 {
				t.Fatalf("%d violations recorded: %v", n, e.Checker().Violations())
			}
			if faulty && !canceling && e.Crashes() == 0 {
				t.Logf("seed %d: fault model produced no crashes this horizon", seed)
			}
		})
	}
}

// randomChoiceDAG builds a random DAG whose PEs carry one to three
// alternates of varied selectivity, with at least one choice group over
// the successors of a PE that has two or more, no PE a target of two
// groups.
func randomChoiceDAG(rng *rand.Rand) *dataflow.Graph {
	for {
		n := 4 + rng.Intn(8)
		pes := make([]*dataflow.PE, n)
		for i := range pes {
			alts := make([]dataflow.Alternate, 1+rng.Intn(3))
			for j := range alts {
				alts[j] = dataflow.Alt(fmt.Sprintf("a%d", j), 0.2+0.8*rng.Float64(),
					0.05+0.4*rng.Float64(), 0.3+1.4*rng.Float64())
			}
			pes[i] = &dataflow.PE{Name: fmt.Sprintf("pe%d", i), Alternates: alts}
		}
		var edges []dataflow.Edge
		for j := 1; j < n; j++ {
			// Every PE after the first gets at least one upstream edge.
			first := rng.Intn(j)
			edges = append(edges, dataflow.Edge{From: first, To: j})
			for i := 0; i < j; i++ {
				if i != first && rng.Float64() < 0.25 {
					edges = append(edges, dataflow.Edge{From: i, To: j})
				}
			}
		}
		g, err := dataflow.NewGraph(pes, edges)
		if err != nil {
			panic(err)
		}
		claimed := make([]bool, n)
		for pe := 0; pe < n; pe++ {
			var free []int
			for _, s := range g.Successors(pe) {
				if !claimed[s] {
					free = append(free, s)
				}
			}
			if len(free) < 2 || rng.Intn(4) == 0 {
				continue
			}
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			targets := free[:2+rng.Intn(len(free)-1)]
			for _, t := range targets {
				claimed[t] = true
			}
			g.Choices = append(g.Choices, dataflow.ChoiceGroup{
				Name: fmt.Sprintf("c%d", len(g.Choices)), From: pe, Targets: append([]int(nil), targets...)})
		}
		if len(g.Choices) == 0 {
			continue
		}
		if err := g.Validate(); err != nil {
			panic(err)
		}
		return g
	}
}

// TestEngineExpectedRatesMatchRoutedFlow: on random DAGs with choice
// groups, with routes and alternates switched between intervals and a
// checkpoint/restore midway, every PE's expected output after every
// interval equals, bit for bit, its arrival rate times its selectivity in
// a freshly prepared RoutedFlow for that interval's input rates,
// selection and routing. The engine's arrivals stage and the flow model
// the planner and Def. 4 share must never drift apart.
func TestEngineExpectedRatesMatchRoutedFlow(t *testing.T) {
	const interval, horizon = int64(60), int64(4 * 3600)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		g := randomChoiceDAG(rng)
		profiles := map[int]rates.Profile{}
		for _, pe := range g.Inputs() {
			w, err := rates.NewWave(2+rng.Float64()*8, rng.Float64(), 1800+rng.Int63n(3600))
			if err != nil {
				t.Fatal(err)
			}
			profiles[pe] = w
		}
		cfg := Config{
			Graph:       g,
			Menu:        cloud.MustMenu(cloud.AWS2013Classes()),
			Inputs:      profiles,
			IntervalSec: interval,
			HorizonSec:  horizon,
			MaxVMs:      256,
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		switches := 0
		sched := &fixed{deploy: deployEven, adapt: func(v *View, act Control) error {
			if rng.Intn(3) == 0 {
				gi := rng.Intn(len(g.Choices))
				switches++
				if err := act.SelectRoute(gi, rng.Intn(len(g.Choices[gi].Targets))); err != nil {
					return err
				}
			}
			if rng.Intn(3) == 0 {
				pe := rng.Intn(g.N())
				switches++
				return act.SelectAlternate(pe, rng.Intn(len(g.PEs[pe].Alternates)))
			}
			return nil
		}}
		var flow dataflow.RoutedFlow
		check := func(e *Engine) {
			t.Helper()
			sec := e.Now() - interval
			in := dataflow.InputRates{}
			for pe, p := range profiles {
				in[pe] = p.Rate(sec)
			}
			if err := flow.Prepare(g, e.sel, e.routing, in); err != nil {
				t.Fatal(err)
			}
			for pe, r := range flow.InRates() {
				want := r * e.sel.Alt(g, pe).Selectivity
				if math.Float64bits(e.ctx.expOut[pe]) != math.Float64bits(want) {
					t.Fatalf("seed %d t=%ds (selection %v, routing %v): PE %d expected output %v, RoutedFlow %v",
						seed, sec, e.sel, e.routing, pe, e.ctx.expOut[pe], want)
				}
			}
		}
		ctx := context.Background()
		for e.Now() < horizon/2 {
			if err := e.RunUntil(ctx, sched, e.Now()+interval); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			check(e)
		}
		snap, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(snap, cfg)
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		for restored.Now() < horizon {
			if err := restored.RunUntil(ctx, sched, restored.Now()+interval); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			check(restored)
		}
		if switches == 0 {
			t.Fatalf("seed %d: no route or alternate switched", seed)
		}
	}
}
