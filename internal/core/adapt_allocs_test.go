package core

import (
	"context"
	"math"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// countingControl applies nothing and counts the control actions issued to
// it, so a converged Adapt can be called again and again on one frozen view.
type countingControl struct {
	actions int
}

func (c *countingControl) SelectAlternate(pe, alt int) error   { c.actions++; return nil }
func (c *countingControl) SelectRoute(group, target int) error { c.actions++; return nil }
func (c *countingControl) AcquireVM(string) (int, error)       { c.actions++; return 0, nil }
func (c *countingControl) ReleaseVM(int) error                 { c.actions++; return nil }
func (c *countingControl) AssignCores(pe, vmID, n int) error   { c.actions++; return nil }
func (c *countingControl) UnassignCores(pe, vmID, n int) error { c.actions++; return nil }
func (c *countingControl) Log(action, detail string)           {}

// adaptAllocsRun is a run whose policy converges within warm-up: tenants
// copies of a small layered DAG with four alternates per interior PE, at a
// constant rate on rated VMs, each driven by an adaptive, dynamic heuristic
// of the strategy that runs the alternate stage on every call. With no
// tenants it is a plain single-tenant run; otherwise the copies share one
// fleet through MultiTenant.
func adaptAllocsRun(t *testing.T, strategy Strategy, tenants int) (*sim.Engine, sim.Scheduler, Objective) {
	t.Helper()
	g := dataflow.LayeredGraph(3, 3, 4)
	obj := testObjective(t, g, 4, 8)
	heuristic := func() *Heuristic {
		return MustHeuristic(Options{
			Strategy:        strategy,
			Dynamic:         true,
			Adaptive:        true,
			AlternatePeriod: 1,
			Objective:       obj,
		})
	}
	cfg := sim.Config{
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Perf:       trace.NewIdeal(),
		Inputs:     map[int]rates.Profile{},
		HorizonSec: 8 * 3600,
		Seed:       3,
	}
	if tenants == 0 {
		cfg.Graph = g
		cfg.Inputs[g.Inputs()[0]] = constProfile(t, 4)
		e, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e, heuristic(), obj
	}
	b := dataflow.NewBuilder()
	inner := make([]sim.Scheduler, tenants)
	for i := range inner {
		name := string(rune('a' + i))
		lo := i * g.N()
		for _, p := range g.PEs {
			b.AddPE(name+"/"+p.Name, p.Alternates...)
		}
		for _, e := range g.Edges {
			b.Connect(name+"/"+g.PEs[e.From].Name, name+"/"+g.PEs[e.To].Name)
		}
		cfg.Inputs[lo+g.Inputs()[0]] = constProfile(t, 4)
		cfg.Tenants = append(cfg.Tenants, sim.Tenant{
			Name: name, LoPE: lo, HiPE: lo + g.N(), OmegaFloor: 0.7, Priority: i, Graph: g,
		})
		inner[i] = heuristic()
	}
	cfg.Graph = b.MustBuild()
	m, err := NewMultiTenant(inner)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, m, obj
}

// TestAdaptAllocs pins the zero-allocation Adapt: once the buffers have
// grown, an Adapt call that issues no control actions — alternate stage
// included, since it runs on every call here and the run sits above the
// throughput band — allocates nothing, for both strategies, alone and
// under MultiTenant.
func TestAdaptAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
		tenants  int
	}{
		{"global", Global, 0},
		{"local", Local, 0},
		{"global/multi-tenant", Global, 3},
		{"local/multi-tenant", Local, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, sched, obj := adaptAllocsRun(t, tc.strategy, tc.tenants)
			if err := e.RunUntil(context.Background(), sched, 2*3600); err != nil {
				t.Fatal(err)
			}
			v := sim.NewView(e)
			if omega := v.MeanOmega(); omega < obj.OmegaHat+obj.Epsilon {
				t.Fatalf("mean omega %v inside or under the band: the alternate stage would return early", omega)
			}
			ctl := &countingControl{}
			adapt := func() {
				if err := sched.Adapt(v, ctl); err != nil {
					t.Fatal(err)
				}
			}
			adapt() // grow the buffers
			if ctl.actions != 0 {
				t.Fatalf("converged Adapt issued %d control actions", ctl.actions)
			}
			if allocs := testing.AllocsPerRun(50, adapt); allocs != 0 {
				t.Fatalf("converged Adapt allocates %v objects per call, want 0", allocs)
			}
		})
	}
}

// TestResizeGrowsGeometrically: growing a buffer one element at a time from
// 1 to n — consolidate's VM id table as the fleet acquires — allocates
// O(log n) times, not n.
func TestResizeGrowsGeometrically(t *testing.T) {
	const n = 1 << 12
	allocs := testing.AllocsPerRun(1, func() {
		var buf []int
		for i := 1; i <= n; i++ {
			buf = resize(buf, i)
		}
	})
	if limit := math.Log2(n) + 1; allocs > limit {
		t.Fatalf("growing to %d elements one at a time allocates %v times, want at most %v", n, allocs, limit)
	}
}
