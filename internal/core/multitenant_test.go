package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
)

// tenantChain is the standalone graph every test tenant runs: src -> work.
func tenantChain() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("work", dataflow.Alt("e", 1, 0.5, 1)).
		Connect("src", "work").
		MustBuild()
}

// mtConfig composes two chain tenants "a" and "b" onto one fleet.
func mtConfig(t *testing.T, rateA, rateB float64, horizon int64) sim.Config {
	t.Helper()
	b := dataflow.NewBuilder()
	for _, p := range []string{"a", "b"} {
		b.AddPE(p+"/src", dataflow.Alt("e", 1, 0.1, 1))
		b.AddPE(p+"/work", dataflow.Alt("e", 1, 0.5, 1))
		b.Connect(p+"/src", p+"/work")
	}
	return sim.Config{
		Graph:  b.MustBuild(),
		Menu:   cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs: map[int]rates.Profile{0: constProfile(t, rateA), 2: constProfile(t, rateB)},
		Seed:   7, HorizonSec: horizon,
		Tenants: []sim.Tenant{
			{Name: "a", LoPE: 0, HiPE: 2, OmegaFloor: 0.7, Graph: tenantChain()},
			{Name: "b", LoPE: 2, HiPE: 4, OmegaFloor: 0.7, Priority: 1, Graph: tenantChain()},
		},
	}
}

// scripted is a scheduler whose deploy/adapt hooks are supplied inline.
type scripted struct {
	name   string
	deploy func(*sim.View, sim.Control) error
	adapt  func(*sim.View, sim.Control) error
}

func (s *scripted) Name() string { return s.name }
func (s *scripted) Deploy(v *sim.View, act sim.Control) error {
	if s.deploy == nil {
		return nil
	}
	return s.deploy(v, act)
}
func (s *scripted) Adapt(v *sim.View, act sim.Control) error {
	if s.adapt == nil {
		return nil
	}
	return s.adapt(v, act)
}

func TestNewMultiTenantValidation(t *testing.T) {
	if _, err := NewMultiTenant(nil); err == nil {
		t.Fatal("empty tenant list accepted")
	}
	if _, err := NewMultiTenant([]sim.Scheduler{&scripted{}, nil}); err == nil {
		t.Fatal("nil inner policy accepted")
	}
	m, err := NewMultiTenant([]sim.Scheduler{&scripted{}, &scripted{}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "multi-tenant[2]" {
		t.Fatalf("name = %q", m.Name())
	}
}

// TestMultiTenantHeuristics drives two unmodified Heuristics, one per
// tenant, over the shared fleet: both dataflows must converge to their
// throughput bands without either policy knowing the composite exists.
func TestMultiTenantHeuristics(t *testing.T) {
	cfg := mtConfig(t, 5, 5, 4*3600)
	inner := make([]sim.Scheduler, 2)
	for i := range inner {
		h, err := NewHeuristic(Options{
			Strategy:  Global,
			Objective: testObjective(t, tenantChain(), 5, 4),
		})
		if err != nil {
			t.Fatal(err)
		}
		inner[i] = h
	}
	m, err := NewMultiTenant(inner)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Tenants) != 2 {
		t.Fatalf("tenant summaries = %+v", sum.Tenants)
	}
	for _, ts := range sum.Tenants {
		if ts.MeanOmega < 0.7 {
			t.Fatalf("tenant %s mean omega = %v, want >= floor", ts.Name, ts.MeanOmega)
		}
	}
}

// TestArbiterDeniesHealthyTenantUnderScarcity pins the fairness rule: once
// the fleet is scarce and some tenant is below its floor, a healthy tenant's
// scale-up is denied — and the ruling lands in the audit log as a
// "fair-share" decision.
func TestArbiterDeniesHealthyTenantUnderScarcity(t *testing.T) {
	cfg := mtConfig(t, 5, 5, 600)
	cfg.MaxVMs = 1
	cfg.Audit = true

	var acquireErr error
	tried := false
	// Tenant a deploys the fleet's only VM and keeps trying to grow; tenant
	// b never deploys, so it starves below its floor.
	a := &scripted{
		name: "a",
		deploy: func(v *sim.View, act sim.Control) error {
			id, err := act.AcquireVM("m1.large")
			if err != nil {
				return err
			}
			if err := act.AssignCores(0, id, 1); err != nil {
				return err
			}
			return act.AssignCores(1, id, 1)
		},
		adapt: func(v *sim.View, act sim.Control) error {
			if !tried && v.Now() > 120 {
				tried = true
				_, acquireErr = act.AcquireVM("m1.large")
			}
			return nil
		},
	}
	b := &scripted{name: "b"}
	m, err := NewMultiTenant([]sim.Scheduler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(m); err != nil {
		t.Fatal(err)
	}
	if !tried {
		t.Fatal("scripted adapt never ran")
	}
	var denied *DeniedError
	if !errors.As(acquireErr, &denied) {
		t.Fatalf("acquire error = %v, want *DeniedError", acquireErr)
	}
	if denied.Tenant != "a" {
		t.Fatalf("denied tenant = %q", denied.Tenant)
	}
	found := false
	for _, entry := range e.AuditLog() {
		d := entry.Decision
		if d == nil || d.Kind != "fair-share" {
			continue
		}
		if d.Tenant != "a" || !strings.HasPrefix(d.Chosen, "deny") {
			t.Fatalf("fair-share ruling = %+v", d)
		}
		if len(d.Options) != 2 {
			t.Fatalf("fair-share options = %+v", d.Options)
		}
		found = true
	}
	if !found {
		t.Fatal("no fair-share decision in audit log")
	}
}

// TestMultiTenantDeployOrder: higher-priority tenants deploy first so they
// claim quota before contention can arise.
func TestMultiTenantDeployOrder(t *testing.T) {
	cfg := mtConfig(t, 5, 5, 120)
	var order []string
	mk := func(name string) *scripted {
		return &scripted{name: name, deploy: func(v *sim.View, act sim.Control) error {
			order = append(order, name)
			return nil
		}}
	}
	// Tenant b carries priority 1 in mtConfig, a carries 0.
	m, err := NewMultiTenant([]sim.Scheduler{mk("a"), mk("b")})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(m); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("deploy order = %v, want [b a]", order)
	}
}

// TestMultiTenantCheckpointState: the composite blob round-trips the inner
// policies' states in tenant order, null for stateless tenants.
func TestMultiTenantCheckpointState(t *testing.T) {
	h, err := NewHeuristic(Options{Objective: testObjective(t, tenantChain(), 5, 4)})
	if err != nil {
		t.Fatal(err)
	}
	h.ticks = 3
	m, err := NewMultiTenant([]sim.Scheduler{h, &scripted{name: "stateless"}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHeuristic(Options{Objective: testObjective(t, tenantChain(), 5, 4)})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMultiTenant([]sim.Scheduler{h2, &scripted{name: "stateless"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if h2.ticks != 3 {
		t.Fatalf("restored ticks = %d, want 3", h2.ticks)
	}
	// Tenant-count mismatch must refuse to restore.
	m3, err := NewMultiTenant([]sim.Scheduler{h2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.RestoreState(blob); err == nil {
		t.Fatal("mismatched tenant count restored")
	}
	// A non-null blob for a stateless tenant must refuse to restore.
	if err := m2.RestoreState([]byte(`[{"ticks":1},{"ticks":1}]`)); err == nil {
		t.Fatal("stateless tenant accepted a state blob")
	}
}

// TestArbiterRulingAllocs: on a scarce fleet every acquisition goes through
// a fair-share ruling. With no decision sink attached, a grant must allocate
// nothing; the arbiter reuses the policy's starvation flags. A repeated
// denial and a refusal at MaxVMs allocate nothing either: each hands out
// the error it built the first time, with the same text.
func TestArbiterRulingAllocs(t *testing.T) {
	cfg := mtConfig(t, 1, 1, 3600)
	cfg.MaxVMs = 8
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, act := sim.NewView(e), sim.NewActions(e)
	for i := 0; i < 7; i++ {
		if _, err := act.AcquireVM("m1.small"); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewMultiTenant([]sim.Scheduler{&scripted{}, &scripted{}})
	if err != nil {
		t.Fatal(err)
	}
	ctl := &countingControl{}
	grant := func() {
		if _, err := m.control(v, ctl, 1).AcquireVM("m1.small"); err != nil {
			t.Fatal(err)
		}
	}
	grant()
	if ctl.actions != 1 {
		t.Fatalf("the grant reached the fleet %d times, want 1", ctl.actions)
	}
	if allocs := testing.AllocsPerRun(100, grant); allocs != 0 {
		t.Fatalf("a fair-share grant allocates %v objects, want 0", allocs)
	}

	// After an interval on no cores both tenants are below their floors;
	// b outranks a, so a is denied.
	if err := e.RunUntil(context.Background(), m, 60); err != nil {
		t.Fatal(err)
	}
	var denial error
	deny := func() {
		if _, denial = m.control(v, ctl, 0).AcquireVM("m1.small"); denial == nil {
			t.Fatal("tenant a's acquisition was granted")
		}
	}
	deny()
	var denied *DeniedError
	if !errors.As(denial, &denied) {
		t.Fatalf("denial = %v, want *DeniedError", denial)
	}
	if want := `core: acquisition denied to tenant "a": starving tenant "b" holds strictly higher priority`; denial.Error() != want {
		t.Fatalf("denial text = %q, want %q", denial.Error(), want)
	}
	if allocs := testing.AllocsPerRun(100, deny); allocs != 0 {
		t.Fatalf("a repeated fair-share denial allocates %v objects, want 0", allocs)
	}

	if _, err := act.AcquireVM("m1.small"); err != nil {
		t.Fatal(err)
	}
	var refusal error
	refuse := func() {
		if _, refusal = act.AcquireVM("m1.small"); refusal == nil {
			t.Fatal("an acquisition beyond MaxVMs succeeded")
		}
	}
	refuse()
	if want := "sim: fleet at MaxVMs=8"; refusal.Error() != want {
		t.Fatalf("refusal text = %q, want %q", refusal.Error(), want)
	}
	if allocs := testing.AllocsPerRun(100, refuse); allocs != 0 {
		t.Fatalf("a refusal at MaxVMs allocates %v objects, want 0", allocs)
	}
}
