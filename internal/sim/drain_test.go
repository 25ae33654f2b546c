package sim

import (
	"math"
	"testing"
)

// TestFluidDrainMatchesAnalyticModel cross-validates the engine's queue
// dynamics against the fluid-drain formula: a backlog built during an
// undersized phase must drain in backlog / (capacity - arrival) seconds
// once capacity is added.
func TestFluidDrainMatchesAnalyticModel(t *testing.T) {
	g := chainGraph(1) // work: 1 core-sec/msg
	const rate = 4.0
	cfg := baseConfig(g, rate, 2*3600)
	e, _ := NewEngine(cfg)
	var scaledAt int64 = -1
	_, err := e.Run(&fixed{
		deploy: func(v *View, act Control) error {
			// src amply provisioned; work on 1 small core: capacity 1
			// msg/s vs 4 arriving -> backlog grows 3 msg/s.
			a, err := act.AcquireVM("m1.large")
			if err != nil {
				return err
			}
			if err := act.AssignCores(0, a, 2); err != nil {
				return err
			}
			b, err := act.AcquireVM("m1.small")
			if err != nil {
				return err
			}
			return act.AssignCores(1, b, 1)
		},
		adapt: func(v *View, act Control) error {
			if v.Now() >= 1200 && scaledAt < 0 {
				scaledAt = v.Now()
				// Replace the starved core with an xlarge (8 ECU =
				// 8 msg/s): unassigning the small core migrates its
				// buffered messages onto the new host (§5), so the
				// whole backlog drains at capacity - arrival = 4 msg/s.
				id, err := act.AcquireVM("m1.xlarge")
				if err != nil {
					return err
				}
				if err := act.AssignCores(1, id, 4); err != nil {
					return err
				}
				as := v.Assignments(1)
				for _, a := range as {
					if a.VMID != id {
						if err := act.UnassignCores(1, a.VMID, a.Cores); err != nil {
							return err
						}
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find backlog at scale-up and when it first hits ~0 after.
	pts := e.Collector().Points()
	var backlogAtScale float64
	var drainedAt int64 = -1
	for _, p := range pts {
		if p.Sec == scaledAt {
			backlogAtScale = p.Backlog
		}
		if p.Sec > scaledAt && drainedAt < 0 && p.Backlog < 1 {
			drainedAt = p.Sec
		}
	}
	if backlogAtScale < 1000 {
		t.Fatalf("backlog at scale-up = %v, expected ~3600 (3 msg/s x 1200 s)", backlogAtScale)
	}
	want := backlogAtScale / (8 - rate) // xlarge capacity 8 msg/s
	got := float64(drainedAt - scaledAt)
	// Interval granularity (60 s) bounds the agreement.
	if math.Abs(got-want) > 120 {
		t.Fatalf("drain took %vs, analytic model predicts %vs", got, want)
	}
}

// TestSteadyStateUtilization checks that a saturated fluid system runs at
// capacity: two cores of 2 msg/s each under 8 msg/s of arrivals process
// 4 msg/s, so Omega settles at capacity/arrival = 0.5.
func TestSteadyStateUtilization(t *testing.T) {
	g := chainGraph(1)
	const rate = 8.0
	cfg := baseConfig(g, rate, 3600)
	e, _ := NewEngine(cfg)
	_, err := e.Run(&fixed{deploy: func(v *View, act Control) error {
		a, err := act.AcquireVM("m1.large")
		if err != nil {
			return err
		}
		if err := act.AssignCores(0, a, 2); err != nil {
			return err
		}
		// work capacity: 2 medium cores = 4 ECU -> 4 msg/s of 8.
		b, err := act.AcquireVM("m1.medium")
		if err != nil {
			return err
		}
		if err := act.AssignCores(1, b, 1); err != nil {
			return err
		}
		c, err := act.AcquireVM("m1.medium")
		if err != nil {
			return err
		}
		return act.AssignCores(1, c, 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	sum := e.Collector().Summarize()
	// Saturated fluid system: omega = capacity/lambda = 4/8.
	if math.Abs(sum.MeanOmega-0.5) > 0.01 {
		t.Fatalf("omega = %v, want 0.5 (= capacity/arrival)", sum.MeanOmega)
	}
}
