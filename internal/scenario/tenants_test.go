package scenario

import (
	"strings"
	"testing"
)

const twoTenant = `{
  "tenants": [
    {
      "name": "analytics",
      "graph": {
        "pes": [
          {"name": "src", "alternates": [{"name": "x", "value": 1, "cost": 0.2, "selectivity": 1}]},
          {"name": "agg", "alternates": [
            {"name": "full", "value": 1, "cost": 1.0, "selectivity": 1},
            {"name": "lite", "value": 0.8, "cost": 0.5, "selectivity": 1}
          ]}
        ],
        "edges": [["src", "agg"]]
      },
      "rate": {"kind": "constant", "mean": 5},
      "omegaFloor": 0.8,
      "priority": 1
    },
    {
      "name": "alerts",
      "graph": {
        "pes": [
          {"name": "src", "alternates": [{"name": "x", "value": 1, "cost": 0.2, "selectivity": 1}]},
          {"name": "match", "alternates": [{"name": "x", "value": 1, "cost": 0.6, "selectivity": 1}]}
        ],
        "edges": [["src", "match"]]
      },
      "rate": {"kind": "constant", "mean": 3}
    }
  ],
  "horizonHours": 1
}`

func TestBuildTwoTenants(t *testing.T) {
	sc, err := Parse(strings.NewReader(twoTenant))
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Config.Graph.N() != 4 {
		t.Fatalf("composite N = %d", built.Config.Graph.N())
	}
	if built.Config.Graph.PEs[0].Name != "analytics/src" || built.Config.Graph.PEs[2].Name != "alerts/src" {
		t.Fatalf("prefixed names = %v, %v", built.Config.Graph.PEs[0].Name, built.Config.Graph.PEs[2].Name)
	}
	if built.Scheduler.Name() != "multi-tenant[2]" {
		t.Fatalf("scheduler = %q", built.Scheduler.Name())
	}
	tens := built.Config.Tenants
	if len(tens) != 2 || tens[0].LoPE != 0 || tens[0].HiPE != 2 || tens[1].LoPE != 2 || tens[1].HiPE != 4 {
		t.Fatalf("tenant ranges = %+v", tens)
	}
	if tens[0].OmegaFloor != 0.8 || tens[0].Priority != 1 {
		t.Fatalf("tenant 0 floor/priority = %v/%d", tens[0].OmegaFloor, tens[0].Priority)
	}
	// Unset floor defaults to the tenant's own objective OmegaHat.
	if tens[1].OmegaFloor != built.TenantObjectives[1].OmegaHat {
		t.Fatalf("tenant 1 floor = %v, objective = %v", tens[1].OmegaFloor, built.TenantObjectives[1].OmegaHat)
	}
	if tens[0].Name != "analytics" || tens[1].Name != "alerts" {
		t.Fatalf("tenant names = %q, %q", tens[0].Name, tens[1].Name)
	}
	sum, err := built.Engine.Run(built.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Tenants) != 2 {
		t.Fatalf("tenant summaries = %+v", sum.Tenants)
	}
	for i, ts := range sum.Tenants {
		if ts.Name != tens[i].Name {
			t.Fatalf("summary %d name = %q", i, ts.Name)
		}
		if !built.TenantObjectives[i].MeetsConstraint(ts.MeanOmega) {
			t.Fatalf("tenant %s omega %v misses its objective %+v", ts.Name, ts.MeanOmega, built.TenantObjectives[i])
		}
	}
}

func TestTenantBuildErrors(t *testing.T) {
	mutate := func(mut func(*Scenario)) error {
		sc, err := Parse(strings.NewReader(twoTenant))
		if err != nil {
			t.Fatal(err)
		}
		mut(sc)
		_, err = sc.Build()
		return err
	}
	if err := mutate(func(s *Scenario) {
		s.Graph.PEs = []PESpec{{Name: "x", Alternates: []AltSpec{{Name: "x", Value: 1, Cost: 1, Selectivity: 1}}}}
	}); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("graph+tenants accepted: %v", err)
	}
	if err := mutate(func(s *Scenario) { s.Tenants[0].Name = "" }); err == nil {
		t.Fatal("unnamed tenant accepted")
	}
	if err := mutate(func(s *Scenario) { s.Tenants[1].Name = "analytics" }); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
	if err := mutate(func(s *Scenario) { s.Policy.Kind = "bruteforce" }); err == nil || !strings.Contains(err.Error(), "single-tenant") {
		t.Fatalf("bruteforce accepted for tenants: %v", err)
	}
	if err := mutate(func(s *Scenario) {
		s.Tenants[0].Policy = &PolicySpec{Kind: "global", Resilient: true}
	}); err == nil || !strings.Contains(err.Error(), "resilient") {
		t.Fatalf("per-tenant resilient accepted: %v", err)
	}
	if err := mutate(func(s *Scenario) { s.Tenants[0].Rate.Kind = "ghost" }); err == nil {
		t.Fatal("bad tenant rate kind accepted")
	}
	if err := mutate(func(s *Scenario) { s.Tenants[0].InputWeights = []float64{1, 2} }); err == nil {
		t.Fatal("input weight count mismatch accepted")
	}
	if err := mutate(func(s *Scenario) { s.FailureMTBFHrs = -2 }); err == nil || !strings.Contains(err.Error(), "failureMTBFHours") {
		t.Fatalf("negative failureMTBFHours accepted for tenants: %v", err)
	}
}

// TestTenantPolicyOverride: a per-tenant policy block replaces the
// scenario-level one, and scenario-level resilience wraps the whole
// arbitrated policy rather than each inner heuristic.
func TestTenantPolicyOverride(t *testing.T) {
	sc, err := Parse(strings.NewReader(twoTenant))
	if err != nil {
		t.Fatal(err)
	}
	sc.Policy.Resilient = true
	sc.Tenants[0].Policy = &PolicySpec{Kind: "local"}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(built.Scheduler.Name(), "resilient") {
		t.Fatalf("scheduler = %q, want resilient wrapper", built.Scheduler.Name())
	}
}

const sessionsTenant = `{
  "tenants": [
    {
      "name": "app",
      "graph": {
        "pes": [
          {"name": "in", "alternates": [{"name": "x", "value": 1, "cost": 0.2, "selectivity": 1}]},
          {"name": "out", "alternates": [{"name": "x", "value": 1, "cost": 0.5, "selectivity": 1}]}
        ],
        "edges": [["in", "out"]]
      },
      "rate": {
        "kind": "sessions",
        "seed": 11,
        "sessions": {
          "model": "open",
          "arrivalPerSec": 0.05,
          "meanSessionSec": 300,
          "msgPerSessionSec": 0.4,
          "diurnal": 0.3
        }
      }
    }
  ],
  "horizonHours": 1
}`

// TestTenantSessionsRate: rate kind "sessions" parses inside a tenant block
// and drives the tenant's inputs from the session-population generator.
func TestTenantSessionsRate(t *testing.T) {
	sc, err := Parse(strings.NewReader(sessionsTenant))
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := built.Config.Inputs[0]
	if !ok {
		t.Fatalf("no input profile at PE 0: %v", built.Config.Inputs)
	}
	if !strings.Contains(prof.Name(), "sessions") {
		t.Fatalf("profile = %q, want a sessions generator", prof.Name())
	}
	if prof.Mean() <= 0 {
		t.Fatalf("sessions mean = %v", prof.Mean())
	}
	// Missing sessions block is an error.
	sc2, err := Parse(strings.NewReader(sessionsTenant))
	if err != nil {
		t.Fatal(err)
	}
	sc2.Tenants[0].Rate.Sessions = nil
	if _, err := sc2.Build(); err == nil {
		t.Fatal("sessions kind without sessions block accepted")
	}
}
