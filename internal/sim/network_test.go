package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/trace"
)

// slowLinks reports a tiny fixed bandwidth between distinct VMs.
type slowLinks struct {
	mbps float64
}

func (s slowLinks) CPUCoeff(int64, int64) float64          { return 1 }
func (s slowLinks) LatencySec(int64, int64, int64) float64 { return 0.001 }
func (s slowLinks) BandwidthMbps(a, b int64, sec int64) float64 {
	return s.mbps
}

func TestBandwidthCapsCrossVMDelivery(t *testing.T) {
	// src and work on DIFFERENT VMs, 100 KB messages, 1 Mbps link:
	// the link carries ~1.25 msg/s of the 10 msg/s stream.
	g := chainGraph(0.1)
	cfg := baseConfig(g, 10, 1800)
	cfg.Perf = slowLinks{mbps: 1}
	e, _ := NewEngine(cfg)
	s, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
		a, err := act.AcquireVM("m1.large")
		if err != nil {
			return err
		}
		if err := act.AssignCores(0, a, 2); err != nil {
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
	// Link capacity: 1e6/8 bytes/s / 102400 bytes/msg = ~1.22 msg/s of 10.
	if s.MeanOmega > 0.25 {
		t.Fatalf("omega = %v, expected bandwidth-throttled (~0.12)", s.MeanOmega)
	}
}

func TestColocationBypassesBandwidth(t *testing.T) {
	// Same scenario but both PEs on ONE VM: colocation means in-memory
	// transfer (lambda -> 0, beta -> infinity per §4), full throughput.
	g := chainGraph(0.1)
	cfg := baseConfig(g, 10, 1800)
	cfg.Perf = slowLinks{mbps: 1}
	e, _ := NewEngine(cfg)
	s, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
		a, err := act.AcquireVM("m1.large")
		if err != nil {
			return err
		}
		if err := act.AssignCores(0, a, 1); err != nil {
			return err
		}
		return act.AssignCores(1, a, 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanOmega < 0.999 {
		t.Fatalf("colocated omega = %v, want ~1", s.MeanOmega)
	}
}

func TestMessageSizeDrivesNetworkLoad(t *testing.T) {
	// Small (1 KB) messages fit the slow link easily; the same rate at
	// 100 KB does not.
	build := func(msgBytes int) float64 {
		g := dataflow.NewBuilder().
			DefaultMsgBytes(msgBytes).
			AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
			AddPE("work", dataflow.Alt("e", 1, 0.1, 1)).
			Connect("src", "work").
			MustBuild()
		cfg := baseConfig(g, 10, 1800)
		cfg.Perf = slowLinks{mbps: 1}
		e, _ := NewEngine(cfg)
		s, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
			a, err := act.AcquireVM("m1.large")
			if err != nil {
				return err
			}
			if err := act.AssignCores(0, a, 2); err != nil {
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
	small := build(1024)
	big := build(100 * 1024)
	if small < 0.999 {
		t.Fatalf("1KB messages throttled: omega %v", small)
	}
	if big > 0.3 {
		t.Fatalf("100KB messages not throttled: omega %v", big)
	}
}

func TestLatencyMetricGrowsWithBacklog(t *testing.T) {
	g := chainGraph(2)
	cfg := baseConfig(g, 10, 3600)
	e, _ := NewEngine(cfg)
	_, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
		a, err := act.AcquireVM("m1.small")
		if err != nil {
			return err
		}
		if err := act.AssignCores(0, a, 1); err != nil {
			return err
		}
		b, err := act.AcquireVM("m1.small")
		if err != nil {
			return err
		}
		return act.AssignCores(1, b, 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	pts := e.Collector().Points()
	early, late := pts[2], pts[len(pts)-1]
	if late.LatencySec <= early.LatencySec {
		t.Fatalf("latency did not grow with backlog: %v -> %v", early.LatencySec, late.LatencySec)
	}
	if late.Backlog <= early.Backlog {
		t.Fatalf("backlog did not grow: %v -> %v", early.Backlog, late.Backlog)
	}
}

// TestActionSequenceInvariants drives the engine with random valid action
// sequences and checks the allocation ledger never goes inconsistent.
func TestActionSequenceInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := dataflow.Fig1Graph()
		c, _ := rates.NewConstant(5)
		cfg := Config{
			Graph:      g,
			Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
			Perf:       trace.MustReplayed(trace.ReplayedConfig{Seed: seed}),
			Inputs:     map[int]rates.Profile{0: c},
			HorizonSec: 1800,
			MaxVMs:     16,
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chaos := &fixed{
			deploy: deployEven,
			adapt: func(v *View, act Control) error {
				for i := 0; i < 4; i++ {
					switch rng.Intn(5) {
					case 0:
						_, _ = act.AcquireVM("m1.medium")
					case 1:
						pe := rng.Intn(g.N())
						vms := v.ActiveVMs()
						if len(vms) > 0 {
							vm := vms[rng.Intn(len(vms))]
							if vm.FreeCores > 0 {
								_ = act.AssignCores(pe, vm.ID, 1)
							}
						}
					case 2:
						pe := rng.Intn(g.N())
						as := v.Assignments(pe)
						if len(as) > 0 {
							a := as[rng.Intn(len(as))]
							_ = act.UnassignCores(pe, a.VMID, 1)
						}
					case 3:
						for _, vm := range v.ActiveVMs() {
							if vm.UsedCores == 0 {
								_ = act.ReleaseVM(vm.ID)
								break
							}
						}
					case 4:
						pe := rng.Intn(g.N())
						_ = act.SelectAlternate(pe, rng.Intn(len(g.PEs[pe].Alternates)))
					}
				}
				// Invariants after every adaptation round.
				for _, vm := range v.ActiveVMs() {
					if vm.UsedCores < 0 || vm.UsedCores > vm.Class.Cores {
						t.Fatalf("seed %d: VM %d cores inconsistent: %d/%d",
							seed, vm.ID, vm.UsedCores, vm.Class.Cores)
					}
				}
				total := 0
				for pe := 0; pe < g.N(); pe++ {
					for _, a := range v.Assignments(pe) {
						if a.Cores <= 0 {
							t.Fatalf("seed %d: non-positive assignment", seed)
						}
						total += a.Cores
					}
					if v.Backlog(pe) < 0 {
						t.Fatalf("seed %d: negative backlog", seed)
					}
				}
				used := 0
				for _, vm := range v.ActiveVMs() {
					used += vm.UsedCores
				}
				if total != used {
					t.Fatalf("seed %d: assignment total %d != fleet used %d", seed, total, used)
				}
				return nil
			},
		}
		if _, err := e.Run(chaos); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Cost is monotone across the run.
		pts := e.Collector().Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].CostUSD < pts[i-1].CostUSD-1e-9 {
				t.Fatalf("seed %d: cost decreased %v -> %v", seed, pts[i-1].CostUSD, pts[i].CostUSD)
			}
			if pts[i].Omega < 0 || pts[i].Omega > 1 {
				t.Fatalf("seed %d: omega out of range: %v", seed, pts[i].Omega)
			}
		}
	}
}

// countLinks counts a provider's bandwidth reads. It declares no bandwidth
// floor, whatever the provider it wraps declares.
type countLinks struct {
	trace.Provider
	reads int
}

func (c *countLinks) BandwidthMbps(a, b int64, sec int64) float64 {
	c.reads++
	return c.Provider.BandwidthMbps(a, b, sec)
}

// floorLinks is countLinks declaring a bandwidth floor.
type floorLinks struct {
	countLinks
	floor float64
}

func (f *floorLinks) BandwidthFloorMbps() float64 { return f.floor }

// uncappedLinks reports links too fast to cap any flow.
type uncappedLinks struct{ trace.Provider }

func (uncappedLinks) BandwidthMbps(int64, int64, int64) float64 { return 1e12 }

// TestBandwidthFloorSkipIsExact runs one fixture whose links sometimes bind
// and sometimes do not on a replayed cloud three ways: declaring the
// provider's bandwidth floor, hiding it, and with links too fast to bind.
// The first two must write the same CSV, audit and trace bytes, the floor
// run reading some links' bandwidth but fewer than the hidden one; the
// third must differ, or no link bound.
func TestBandwidthFloorSkipIsExact(t *testing.T) {
	bw := trace.DefaultBandwidthConfig()
	bw.Min, bw.Mean = 5, 30 // 100 KB messages: the floor caps a link at ~6.1 msg/s
	replayed := trace.MustReplayed(trace.ReplayedConfig{Seed: 8, Bandwidth: bw})
	run := func(perf trace.Provider) string {
		t.Helper()
		cfg := baseConfig(chainGraph(0.1), 20, 4*3600)
		wave, err := rates.NewWave(20, 18, 1800)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Inputs[0] = wave
		cfg.Perf = perf
		var tr bytes.Buffer
		cfg.Tracer = obs.NewTracer(&tr)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Two VMs per PE, and a third for work after two hours, so every
		// edge splits over several links.
		if _, err := e.Run(&fixed{
			deploy: func(v *View, act Control) error {
				for pe := 0; pe < 2; pe++ {
					for k := 0; k < 2; k++ {
						id, err := act.AcquireVM("m1.large")
						if err != nil {
							return err
						}
						if err := act.AssignCores(pe, id, 2); err != nil {
							return err
						}
					}
				}
				return nil
			},
			adapt: func(v *View, act Control) error {
				if v.Now() != 2*3600 {
					return nil
				}
				id, err := act.AcquireVM("m1.large")
				if err != nil {
					return err
				}
				return act.AssignCores(1, id, 2)
			},
		}); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := e.Collector().WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteAuditJSONL(&out); err != nil {
			t.Fatal(err)
		}
		return out.String() + tr.String()
	}
	floored := &floorLinks{countLinks: countLinks{Provider: replayed}, floor: replayed.BandwidthFloorMbps()}
	hidden := &countLinks{Provider: replayed}
	withFloor, without := run(floored), run(hidden)
	if withFloor != without {
		t.Fatal("declaring the bandwidth floor moved the run's CSV, audit or trace")
	}
	if floored.reads == 0 || floored.reads >= hidden.reads {
		t.Fatalf("bandwidth reads: %d with the floor, %d without; want some, but fewer", floored.reads, hidden.reads)
	}
	if run(uncappedLinks{replayed}) == without {
		t.Fatal("no link bound: the fixture does not exercise the cap")
	}
	t.Logf("bandwidth reads: %d with the floor, %d without", floored.reads, hidden.reads)
}
