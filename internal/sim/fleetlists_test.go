package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/trace"
)

// fleetOracle is the scheduler's picture of the fleet as it was built
// before the engine kept an index: fresh walks over the whole VM history,
// kept verbatim — View.ActiveVMsInto's loop with its vmInfo, and
// cloud.Fleet's ActiveCount, PendingCount and Pending.
type fleetOracle struct {
	active   []VMInfo
	pending  []PendingVM
	nActive  int
	nPending int
}

func walkFleet(e *Engine) fleetOracle {
	var o fleetOracle
	for _, vm := range e.fleet.All() {
		if vm.Active() {
			o.active = append(o.active, VMInfo{
				ID:                 vm.ID,
				Class:              vm.Class,
				UsedCores:          vm.UsedCores,
				FreeCores:          vm.FreeCores(),
				CPUCoeff:           e.vmMon.CPUCoeff(vm.ID, 1.0),
				SecsToHourBoundary: vm.SecondsToHourBoundary(e.clock),
				StartSec:           vm.StartSec,
			})
		}
	}
	for _, vm := range e.fleet.All() {
		if vm.Active() {
			o.nActive++
		}
	}
	for _, vm := range e.fleet.All() {
		if vm.Pending() && vm.StopSec < 0 {
			o.nPending++
		}
	}
	for _, vm := range e.fleet.All() {
		if vm.Pending() && vm.StopSec < 0 {
			o.pending = append(o.pending, PendingVM{ID: vm.ID, Class: vm.Class, UsedCores: vm.UsedCores,
				ReadySec: vm.ReadySec, StartSec: vm.StartSec})
		}
	}
	return o
}

// errIndexMismatch marks a difference between the fleet index and the
// oracle's walks.
var errIndexMismatch = errors.New("fleet index differs from the history walk")

// checkFleetIndex compares what every view of the engine reads with the
// oracle's walks, and returns an error naming the first difference. Every
// tenant view must read the very same list as the global view.
func checkFleetIndex(e *Engine) error {
	if err := diffFleetIndex(e); err != nil {
		return fmt.Errorf("%w: %v", errIndexMismatch, err)
	}
	return nil
}

func diffFleetIndex(e *Engine) error {
	want := walkFleet(e)
	v := NewView(e)
	active, pending := v.ActiveVMs(), v.PendingVMs()
	if len(active) != len(want.active) || len(active) > 0 && !reflect.DeepEqual(active, want.active) {
		return fmt.Errorf("ActiveVMs\n got  %+v\n want %+v", active, want.active)
	}
	if len(pending) != len(want.pending) || len(pending) > 0 && !reflect.DeepEqual(pending, want.pending) {
		return fmt.Errorf("PendingVMs\n got  %+v\n want %+v", pending, want.pending)
	}
	if a, p := v.FleetCounts(); a != want.nActive || p != want.nPending {
		return fmt.Errorf("FleetCounts %d active, %d pending; the walk counts %d, %d", a, p, want.nActive, want.nPending)
	}
	for i := 0; i < v.TenantCount(); i++ {
		tv := v.Tenant(i)
		ta, tp := tv.ActiveVMs(), tv.PendingVMs()
		if len(ta) != len(active) || len(ta) > 0 && &ta[0] != &active[0] ||
			len(tp) != len(pending) || len(tp) > 0 && &tp[0] != &pending[0] {
			return fmt.Errorf("tenant %d reads a list of its own", i)
		}
	}
	return nil
}

// checkedControl checks the fleet index after every call it forwards.
type checkedControl struct {
	Control
	e     *Engine
	calls int
	err   error
}

func (c *checkedControl) after(what string) {
	c.calls++
	if c.err != nil {
		return
	}
	if err := checkFleetIndex(c.e); err != nil {
		c.err = fmt.Errorf("t=%d after %s: %w", c.e.clock, what, err)
	}
}

func (c *checkedControl) AcquireVM(class string) (int, error) {
	id, err := c.Control.AcquireVM(class)
	c.after("AcquireVM " + class)
	return id, err
}

func (c *checkedControl) ReleaseVM(id int) error {
	err := c.Control.ReleaseVM(id)
	c.after(fmt.Sprintf("ReleaseVM %d", id))
	return err
}

func (c *checkedControl) AssignCores(pe, id, n int) error {
	err := c.Control.AssignCores(pe, id, n)
	c.after(fmt.Sprintf("AssignCores %d %d %d", pe, id, n))
	return err
}

func (c *checkedControl) UnassignCores(pe, id, n int) error {
	err := c.Control.UnassignCores(pe, id, n)
	c.after(fmt.Sprintf("UnassignCores %d %d %d", pe, id, n))
	return err
}

// indexChurn drives every fleet mutation of the control surface at random,
// through a checkedControl: acquisitions of on-demand and spot classes
// (some boot late, some fail), assignments onto active and booting VMs,
// unassignments, moves, and releases of idle active and booting VMs. It
// reads the fleet through the tenant views, and checks the index at the
// start of every call, that is after every interval.
type indexChurn struct {
	e     *Engine
	rng   *rand.Rand
	calls int
}

func (s *indexChurn) Name() string { return "index-churn" }

func (s *indexChurn) Deploy(v *View, act Control) error { return s.Adapt(v, act) }

func (s *indexChurn) Adapt(v *View, act Control) error {
	if err := checkFleetIndex(s.e); err != nil {
		return fmt.Errorf("t=%d at the interval: %w", s.e.clock, err)
	}
	ctl := &checkedControl{Control: act, e: s.e}
	defer func() { s.calls += ctl.calls }()
	classes := []string{"m1.small", "m1.large", "m1.small-spot", "m1.medium-spot"}
	n := v.Graph().N()
	for i := 0; i < 10 && ctl.err == nil; i++ {
		rv := v
		if k := v.TenantCount(); k > 0 {
			rv = v.Tenant(s.rng.Intn(k))
		}
		switch s.rng.Intn(7) {
		case 0, 1:
			_, _ = ctl.AcquireVM(classes[s.rng.Intn(len(classes))])
		case 2:
			if vms := rv.ActiveVMs(); len(vms) > 0 {
				vm := vms[s.rng.Intn(len(vms))]
				_ = ctl.AssignCores(s.rng.Intn(n), vm.ID, 1+s.rng.Intn(2))
			}
		case 3:
			if vms := rv.PendingVMs(); len(vms) > 0 {
				_ = ctl.AssignCores(s.rng.Intn(n), vms[s.rng.Intn(len(vms))].ID, 1)
			}
		case 4:
			// Unassign anywhere the PE holds cores, booting VMs included.
			pe := s.rng.Intn(n)
			p := &s.e.pes[pe]
			if len(p.vms) == 0 {
				break
			}
			if sl := s.rng.Intn(len(p.vms)); p.cores[sl] > 0 {
				_ = ctl.UnassignCores(pe, p.vms[sl], 1+s.rng.Intn(p.cores[sl]))
			}
		case 5:
			// A move: a core onto an active VM, then off the VM it left.
			pe := s.rng.Intn(n)
			vms := rv.ActiveVMs()
			if as := v.Assignments(pe); len(as) > 0 && len(vms) > 0 {
				from, to := as[0].VMID, vms[s.rng.Intn(len(vms))].ID
				if from != to && ctl.AssignCores(pe, to, 1) == nil {
					_ = ctl.UnassignCores(pe, from, 1)
				}
			}
		case 6:
			var idle []int
			for _, vm := range rv.ActiveVMs() {
				if vm.UsedCores == 0 {
					idle = append(idle, vm.ID)
				}
			}
			for _, vm := range rv.PendingVMs() {
				if vm.UsedCores == 0 {
					idle = append(idle, vm.ID)
				}
			}
			if len(idle) > 0 {
				_ = ctl.ReleaseVM(idle[s.rng.Intn(len(idle))])
			}
		}
	}
	return ctl.err
}

// fleetIndexConfig is three tenants on one capped fleet with boot delays,
// transient acquisition failures, crashes, spot preemption and stale,
// noisy CPU probes on replayed infrastructure. On even seeds most VMs boot
// at once (a mean boot of 1 s rounds down to none for ~63 % of draws); on
// odd seeds most boot over several intervals.
func fleetIndexConfig(seed int64) Config {
	cfg := multiTenantBenchConfig(3, 2, 2)
	cfg.Menu = cloud.MustMenu(cloud.WithSpotMarket(cloud.AWS2013Classes(), 0.3))
	cfg.Perf = trace.MustReplayed(trace.ReplayedConfig{Seed: 100 + seed})
	cfg.IntervalSec = 60
	cfg.HorizonSec = 3 * 3600
	cfg.Seed = seed
	cfg.MaxVMs = 24
	cfg.Failures = ExponentialFailures{MTBFSec: 2400, Seed: seed}
	cfg.Preemption = ExponentialFailures{MTBFSec: 900, Seed: seed + 1}
	cfg.ControlFaults = &ControlFaults{
		Provisioning: &ProvisioningFaults{MeanBootSec: 1 + 149*(seed%2)},
		Acquisition:  &AcquisitionFaults{FailProb: 0.2},
		Monitoring:   &MonitoringFaults{StaleProb: 0.3, NoiseFrac: 0.2},
		Seed:         seed,
	}
	return cfg
}

// TestFleetIndexMatchesHistoryWalk holds the engine's fleet lists and the
// fleet's counts to the oracle's walks over the whole history: after every
// control call and every interval, over 20 seeds of three tenants sharing a
// churning fleet — boot delays, failed acquisitions, crashes, spot
// preemptions and releases — and across a restore mid-run.
func TestFleetIndexMatchesHistoryWalk(t *testing.T) {
	ctx := context.Background()
	var calls, released, pending, crashed int
	for seed := int64(1); seed <= 20; seed++ {
		cfg := fleetIndexConfig(seed)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		cut := (1 + rng.Int63n(cfg.HorizonSec/cfg.IntervalSec-1)) * cfg.IntervalSec
		s := &indexChurn{e: e, rng: rng}
		if err := e.RunUntil(ctx, s, cut); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if e, err = Restore(snap, cfg); err != nil {
			t.Fatalf("seed %d: restore at %ds: %v", seed, cut, err)
		}
		if err := checkFleetIndex(e); err != nil {
			t.Fatalf("seed %d: restored at %ds: %v", seed, cut, err)
		}
		s.e = e
		if _, err := e.Run(s); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkFleetIndex(e); err != nil {
			t.Fatalf("seed %d: at the horizon: %v", seed, err)
		}
		calls += s.calls
		crashed += e.Crashes()
		for _, vm := range e.fleet.All() {
			switch {
			case vm.Stopped():
				released++
			case vm.Pending():
				pending++
			}
		}
	}
	if calls < 5000 || released < 200 || crashed < 50 {
		t.Fatalf("too little churn: %d checked calls, %d VMs stopped (%d crashed)", calls, released, crashed)
	}
	t.Logf("%d checked control calls, %d VMs stopped (%d crashed), %d booting at the end", calls, released, crashed, pending)
}
