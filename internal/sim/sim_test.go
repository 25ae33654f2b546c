package sim

import (
	"math"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/trace"
)

// fixed is a test scheduler: deploy with a callback, never adapt.
type fixed struct {
	deploy func(v *View, act Control) error
	adapt  func(v *View, act Control) error
}

func (f *fixed) Name() string { return "fixed" }
func (f *fixed) Deploy(v *View, act Control) error {
	if f.deploy == nil {
		return nil
	}
	return f.deploy(v, act)
}
func (f *fixed) Adapt(v *View, act Control) error {
	if f.adapt == nil {
		return nil
	}
	return f.adapt(v, act)
}

// chainGraph returns src -> work with configurable work cost.
func chainGraph(workCost float64) *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("work", dataflow.Alt("e", 1, workCost, 1)).
		Connect("src", "work").
		MustBuild()
}

func baseConfig(g *dataflow.Graph, rate float64, horizon int64) Config {
	c, err := rates.NewConstant(rate)
	if err != nil {
		panic(err)
	}
	return Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{0: c},
		HorizonSec: horizon,
	}
}

// deployEven gives each PE one dedicated m1.large core pair (2 cores).
func deployEven(v *View, act Control) error {
	for pe := 0; pe < v.Graph().N(); pe++ {
		id, err := act.AcquireVM("m1.large")
		if err != nil {
			return err
		}
		if err := act.AssignCores(pe, id, 2); err != nil {
			return err
		}
	}
	return nil
}

func TestConfigValidation(t *testing.T) {
	g := chainGraph(1)
	menu := cloud.MustMenu(cloud.AWS2013Classes())
	c, _ := rates.NewConstant(5)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"nil menu", func(c *Config) { c.Menu = nil }},
		{"zero horizon", func(c *Config) { c.HorizonSec = 0 }},
		{"horizon not multiple", func(c *Config) { c.HorizonSec = 90 }},
		{"negative interval", func(c *Config) { c.IntervalSec = -1 }},
		{"missing input", func(c *Config) { c.Inputs = map[int]rates.Profile{} }},
		{"profile on non-input", func(c *Config) { c.Inputs[1] = c.Inputs[0] }},
		{"bad alpha", func(c *Config) { c.MonitorAlpha = 2 }},
		{"bad max vms", func(c *Config) { c.MaxVMs = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Graph: g, Menu: menu, Inputs: map[int]rates.Profile{0: c}, HorizonSec: 3600}
			tc.mut(&cfg)
			if _, err := NewEngine(cfg); err == nil {
				t.Fatal("bad config accepted")
			}
		})
	}
}

func TestRunRequiresScheduler(t *testing.T) {
	e, err := NewEngine(baseConfig(chainGraph(1), 5, 600))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
}

func TestAdequateAllocationGivesFullThroughput(t *testing.T) {
	// work cost 1 core-sec/msg at 5 msg/s needs 5 ECU; one m1.large (4 ECU)
	// per PE is plenty for src (0.1) and short for work... use 2 larges.
	g := chainGraph(0.5)
	cfg := baseConfig(g, 5, 3600)
	e, _ := NewEngine(cfg)
	s, err := e.Run(&fixed{deploy: deployEven})
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanOmega < 0.999 {
		t.Fatalf("omega = %v, want ~1 (capacity 8 msg/s vs 5)", s.MeanOmega)
	}
	if s.MeanGamma != 1 {
		t.Fatalf("gamma = %v", s.MeanGamma)
	}
	// 2 m1.large for 1 hour = $0.48.
	if math.Abs(s.TotalCostUSD-0.48) > 1e-9 {
		t.Fatalf("cost = %v", s.TotalCostUSD)
	}
	if s.PeakVMs != 2 {
		t.Fatalf("peak VMs = %d", s.PeakVMs)
	}
}

func TestUnderprovisionedThrottlesThroughput(t *testing.T) {
	// work needs 10 msg/s * 2 core-sec = 20 ECU; give it one m1.small
	// (1 ECU) -> capacity 0.5 msg/s -> omega ~ 0.05 at the sink.
	g := chainGraph(2)
	cfg := baseConfig(g, 10, 3600)
	e, _ := NewEngine(cfg)
	s, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
		for pe := 0; pe < 2; pe++ {
			id, err := act.AcquireVM("m1.small")
			if err != nil {
				return err
			}
			if err := act.AssignCores(pe, id, 1); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanOmega > 0.2 {
		t.Fatalf("omega = %v, expected heavy throttling", s.MeanOmega)
	}
	// Backlog must accumulate.
	if s.MeanBacklog <= 0 {
		t.Fatal("no backlog despite underprovisioning")
	}
}

func TestNoCoresBuffersMessages(t *testing.T) {
	g := chainGraph(1)
	cfg := baseConfig(g, 5, 600)
	e, _ := NewEngine(cfg)
	s, err := e.Run(&fixed{}) // no deployment at all
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanOmega != 0 {
		t.Fatalf("omega = %v with no cores", s.MeanOmega)
	}
	if s.TotalCostUSD != 0 {
		t.Fatalf("cost = %v with no VMs", s.TotalCostUSD)
	}
	if s.MeanBacklog <= 0 {
		t.Fatal("messages were lost instead of buffered")
	}
}

func TestBacklogDrainsAfterScaleUp(t *testing.T) {
	// Start with nothing; after 10 intervals assign ample cores; backlog
	// must drain and omega recover within the hour.
	g := chainGraph(0.5)
	cfg := baseConfig(g, 5, 7200)
	e, _ := NewEngine(cfg)
	scaled := false
	_, err := e.Run(&fixed{adapt: func(v *View, act Control) error {
		if v.Now() >= 600 && !scaled {
			scaled = true
			return deployEven(v, act)
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Collector().Points()
	last := pts[len(pts)-1]
	if last.Omega < 0.999 {
		t.Fatalf("final omega = %v", last.Omega)
	}
	if last.Backlog > 1 {
		t.Fatalf("final backlog = %v, should have drained", last.Backlog)
	}
}

func TestAlternateSwitchChangesGammaAndCapacity(t *testing.T) {
	g := dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("work",
			dataflow.Alt("heavy", 1.0, 2.0, 1),
			dataflow.Alt("light", 0.5, 0.2, 1)).
		Connect("src", "work").
		MustBuild()
	cfg := baseConfig(g, 5, 3600)
	e, _ := NewEngine(cfg)
	switched := false
	_, err := e.Run(&fixed{
		deploy: func(v *View, act Control) error {
			// One large for src, one medium (2 ECU) for work: heavy
			// needs 10 ECU -> throttled; light needs 1 -> fine.
			a, _ := act.AcquireVM("m1.large")
			if err := act.AssignCores(0, a, 2); err != nil {
				return err
			}
			b, err := act.AcquireVM("m1.medium")
			if err != nil {
				return err
			}
			return act.AssignCores(1, b, 1)
		},
		adapt: func(v *View, act Control) error {
			if v.Now() >= 1800 && !switched {
				switched = true
				return act.SelectAlternate(1, 1)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Collector().Points()
	first, last := pts[10], pts[len(pts)-1]
	if first.Gamma != 1.0 {
		t.Fatalf("gamma before switch = %v", first.Gamma)
	}
	if last.Gamma != 0.75 {
		t.Fatalf("gamma after switch = %v", last.Gamma)
	}
	if first.Omega > 0.5 {
		t.Fatalf("heavy alternate omega = %v, expected throttled", first.Omega)
	}
	if last.Omega < 0.99 {
		t.Fatalf("light alternate omega = %v, expected recovered", last.Omega)
	}
}

func TestSelectivityAffectsExpectedOutput(t *testing.T) {
	g := dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("filter", dataflow.Alt("e", 1, 0.1, 0.5)).
		Connect("src", "filter").
		MustBuild()
	cfg := baseConfig(g, 10, 600)
	e, _ := NewEngine(cfg)
	s, err := e.Run(&fixed{deploy: deployEven})
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Collector().Points()
	last := pts[len(pts)-1]
	// Output rate at sink = 10 * 0.5 = 5; omega still 1.
	if math.Abs(last.OutputRate-5) > 0.01 {
		t.Fatalf("output rate = %v, want 5", last.OutputRate)
	}
	if s.MeanOmega < 0.999 {
		t.Fatalf("omega = %v", s.MeanOmega)
	}
}

func TestHourBoundaryBilling(t *testing.T) {
	g := chainGraph(0.5)
	cfg := baseConfig(g, 2, 2*3600)
	e, _ := NewEngine(cfg)
	released := false
	_, err := e.Run(&fixed{
		deploy: deployEven,
		adapt: func(v *View, act Control) error {
			// Release the work PE's VM after 10 minutes; billed a full hour.
			if v.Now() >= 600 && !released {
				released = true
				as := v.Assignments(1)
				for _, a := range as {
					if err := act.UnassignCores(1, a.VMID, a.Cores); err != nil {
						return err
					}
					if err := act.ReleaseVM(a.VMID); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// VM0 runs 2 hours ($0.48), VM1 billed 1 hour ($0.24).
	want := 2*0.24 + 0.24
	if got := e.Fleet().TotalCost(e.Now()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", got, want)
	}
}

func TestReleaseMigratesBuffers(t *testing.T) {
	// Two VMs host "work"; one underprovisioned so its queue builds; then
	// release it — queue must move to the survivor, not vanish.
	g := chainGraph(4) // heavy: 2 msg/s * 4 = 8 ECU needed
	cfg := baseConfig(g, 2, 3600)
	e, _ := NewEngine(cfg)
	var vmA, vmB int
	released := false
	_, err := e.Run(&fixed{
		deploy: func(v *View, act Control) error {
			s, err := act.AcquireVM("m1.large")
			if err != nil {
				return err
			}
			if err := act.AssignCores(0, s, 1); err != nil {
				return err
			}
			vmA, err = act.AcquireVM("m1.small")
			if err != nil {
				return err
			}
			if err := act.AssignCores(1, vmA, 1); err != nil {
				return err
			}
			vmB, err = act.AcquireVM("m1.small")
			if err != nil {
				return err
			}
			return act.AssignCores(1, vmB, 1)
		},
		adapt: func(v *View, act Control) error {
			if v.Now() >= 1200 && !released {
				released = true
				if err := act.UnassignCores(1, vmA, 1); err != nil {
					return err
				}
				return act.ReleaseVM(vmA)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.MigratedBytes() <= 0 {
		t.Fatal("no migration bytes recorded")
	}
}

func TestActionsValidation(t *testing.T) {
	g := chainGraph(1)
	cfg := baseConfig(g, 5, 600)
	e, _ := NewEngine(cfg)
	act := &Actions{e: e}
	if err := act.SelectAlternate(99, 0); err == nil {
		t.Fatal("bad PE accepted")
	}
	if err := act.SelectAlternate(0, 99); err == nil {
		t.Fatal("bad alternate accepted")
	}
	if _, err := act.AcquireVM("ghost"); err == nil {
		t.Fatal("ghost class accepted")
	}
	id, err := act.AcquireVM("m1.small")
	if err != nil {
		t.Fatal(err)
	}
	if err := act.AssignCores(99, id, 1); err == nil {
		t.Fatal("assign to bad PE accepted")
	}
	if err := act.AssignCores(0, id, 5); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if err := act.AssignCores(0, id, 1); err != nil {
		t.Fatal(err)
	}
	if err := act.UnassignCores(0, id, 2); err == nil {
		t.Fatal("unassign too many accepted")
	}
	if err := act.UnassignCores(99, id, 1); err == nil {
		t.Fatal("unassign bad PE accepted")
	}
	if err := act.ReleaseVM(id); err == nil {
		t.Fatal("release with cores accepted")
	}
	if err := act.MovePE(0, id, id, 1); err == nil {
		t.Fatal("move onto same VM accepted")
	}
}

func TestMaxVMsEnforced(t *testing.T) {
	g := chainGraph(1)
	cfg := baseConfig(g, 5, 600)
	cfg.MaxVMs = 2
	e, _ := NewEngine(cfg)
	act := &Actions{e: e}
	for i := 0; i < 2; i++ {
		if _, err := act.AcquireVM("m1.small"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := act.AcquireVM("m1.small"); err == nil {
		t.Fatal("MaxVMs not enforced")
	}
}

func TestMovePE(t *testing.T) {
	g := chainGraph(0.5)
	cfg := baseConfig(g, 2, 1200)
	e, _ := NewEngine(cfg)
	moved := false
	_, err := e.Run(&fixed{
		deploy: deployEven,
		adapt: func(v *View, act Control) error {
			if moved {
				return nil
			}
			moved = true
			// Move PE 1 to a new VM.
			nv, err := act.AcquireVM("m1.large")
			if err != nil {
				return err
			}
			as := v.Assignments(1)
			return act.(*Actions).MovePE(1, as[0].VMID, nv, as[0].Cores)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	view := &View{e: e}
	as := view.Assignments(1)
	if len(as) != 1 || as[0].Cores != 2 {
		t.Fatalf("assignments after move = %+v", as)
	}
}

func TestVariableInfrastructureDegradesThroughput(t *testing.T) {
	// Tight provisioning (capacity == demand) is fine on an ideal cloud but
	// must violate throughput under degraded CPU coefficients.
	g := chainGraph(1)
	mk := func(p trace.Provider) float64 {
		cfg := baseConfig(g, 4, 4*3600)
		cfg.Perf = p
		e, _ := NewEngine(cfg)
		s, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
			// src: 0.4 ECU needed -> 1 small; work: 4 ECU exactly -> 1 large.
			a, _ := act.AcquireVM("m1.small")
			if err := act.AssignCores(0, a, 1); err != nil {
				return err
			}
			b, err := act.AcquireVM("m1.large")
			if err != nil {
				return err
			}
			return act.AssignCores(1, b, 2)
		}})
		if err != nil {
			t.Fatal(err)
		}
		return s.MeanOmega
	}
	ideal := mk(trace.NewIdeal())
	varied := mk(trace.MustReplayed(trace.ReplayedConfig{Seed: 3}))
	if ideal < 0.999 {
		t.Fatalf("ideal omega = %v", ideal)
	}
	if varied >= ideal-0.01 {
		t.Fatalf("variability did not hurt: ideal %v vs varied %v", ideal, varied)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		g := chainGraph(1)
		cfg := baseConfig(g, 5, 3600)
		cfg.Perf = trace.MustReplayed(trace.ReplayedConfig{Seed: 11})
		cfg.Seed = 4
		e, _ := NewEngine(cfg)
		if _, err := e.Run(&fixed{deploy: deployEven}); err != nil {
			t.Fatal(err)
		}
		var omega []float64
		for _, p := range e.Collector().Points() {
			omega = append(omega, p.Omega)
		}
		return omega
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at interval %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestViewBeforeFirstInterval(t *testing.T) {
	g := chainGraph(1)
	cfg := baseConfig(g, 7, 600)
	e, _ := NewEngine(cfg)
	v := &View{e: e}
	if v.Omega() != 1 || v.MeanOmega() != 1 {
		t.Fatal("pre-t0 view should report optimistic defaults")
	}
	if got := v.EstimatedInputRate(0); got != 7 {
		t.Fatalf("estimated rate = %v, want profile value 7", got)
	}
	if v.ObservedArrivalRate(1) != 0 {
		t.Fatal("pre-t0 arrival rate should be 0")
	}
}
