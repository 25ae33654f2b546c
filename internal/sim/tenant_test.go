package sim

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/rates"
)

// twoTenantConfig composes two 2-PE chain tenants ("a", "b") onto one
// graph. Each tenant's standalone graph is chainGraph(0.5), matching the
// prefixed composite copies.
func twoTenantConfig(rateA, rateB float64, horizon int64) Config {
	b := dataflow.NewBuilder()
	for _, p := range []string{"a", "b"} {
		b.AddPE(p+"/src", dataflow.Alt("e", 1, 0.1, 1))
		b.AddPE(p+"/work", dataflow.Alt("e", 1, 0.5, 1))
		b.Connect(p+"/src", p+"/work")
	}
	ca, err := rates.NewConstant(rateA)
	if err != nil {
		panic(err)
	}
	cb, err := rates.NewConstant(rateB)
	if err != nil {
		panic(err)
	}
	return Config{
		Graph:      b.MustBuild(),
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{0: ca, 2: cb},
		HorizonSec: horizon,
		Tenants: []Tenant{
			{Name: "a", LoPE: 0, HiPE: 2, OmegaFloor: 0.7, Graph: chainGraph(0.5)},
			{Name: "b", LoPE: 2, HiPE: 4, OmegaFloor: 0.7, Priority: 1, Graph: chainGraph(0.5)},
		},
	}
}

func TestTenantConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"empty name", func(c *Config) { c.Tenants[0].Name = "" }},
		{"duplicate name", func(c *Config) { c.Tenants[1].Name = "a" }},
		{"overlapping ranges", func(c *Config) { c.Tenants[1].LoPE = 1 }},
		{"inverted range", func(c *Config) { c.Tenants[0].HiPE = 0 }},
		{"range past graph", func(c *Config) { c.Tenants[1].HiPE = 5 }},
		{"nil tenant graph", func(c *Config) { c.Tenants[0].Graph = nil }},
		{"graph size mismatch", func(c *Config) { c.Tenants[0].Graph = chainGraph(0.5); c.Tenants[0].HiPE = 1; c.Tenants[1].LoPE = 1 }},
		{"floor above one", func(c *Config) { c.Tenants[0].OmegaFloor = 1.5 }},
		{"negative floor", func(c *Config) { c.Tenants[0].OmegaFloor = -0.1 }},
		{"choice range on choiceless graph", func(c *Config) { c.Tenants[0].HiChoice = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := twoTenantConfig(5, 5, 600)
			tc.mut(&cfg)
			if _, err := NewEngine(cfg); err == nil {
				t.Fatal("bad tenant config accepted")
			}
		})
	}
	if _, err := NewEngine(twoTenantConfig(5, 5, 600)); err != nil {
		t.Fatalf("good tenant config rejected: %v", err)
	}
}

// TestMultiTenantOmegaAndSpend: with adequate capacity both tenants run at
// Ω=1, the per-tenant spend attribution sums to the total bill, and the
// metrics CSV grows per-tenant columns.
func TestMultiTenantOmegaAndSpend(t *testing.T) {
	cfg := twoTenantConfig(5, 5, 3600)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Run(&fixed{deploy: deployEven})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Tenants) != 2 || sum.Tenants[0].Name != "a" || sum.Tenants[1].Name != "b" {
		t.Fatalf("tenant summaries = %+v", sum.Tenants)
	}
	for _, ts := range sum.Tenants {
		if ts.MeanOmega < 0.999 || ts.MinOmega < 0.999 {
			t.Fatalf("tenant %s omega = %v / %v, want ~1", ts.Name, ts.MeanOmega, ts.MinOmega)
		}
		if ts.MeanGamma <= 0 {
			t.Fatalf("tenant %s gamma = %v", ts.Name, ts.MeanGamma)
		}
	}
	spend := sum.Tenants[0].SpendUSD + sum.Tenants[1].SpendUSD
	if math.Abs(spend-sum.TotalCostUSD) > 1e-9*(1+sum.TotalCostUSD) {
		t.Fatalf("tenant spend %v != total cost %v", spend, sum.TotalCostUSD)
	}
	var buf bytes.Buffer
	if err := e.Collector().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, col := range []string{"omega_a", "gamma_a", "spend_usd_a", "omega_b", "gamma_b", "spend_usd_b"} {
		if !strings.Contains(header, col) {
			t.Fatalf("CSV header %q missing %s", header, col)
		}
	}
}

// TestTenantViewScoping: a tenant-scoped view reports the tenant's own
// graph and translates PE indices to composite numbering under the hood.
func TestTenantViewScoping(t *testing.T) {
	cfg := twoTenantConfig(5, 3, 1200)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&fixed{deploy: deployEven}); err != nil {
		t.Fatal(err)
	}
	v := NewView(e)
	if v.TenantCount() != 2 {
		t.Fatalf("tenant count = %d", v.TenantCount())
	}
	vb := v.Tenant(1)
	if vb.Graph().N() != 2 || vb.Graph().PEs[0].Name != "src" {
		t.Fatalf("tenant view graph = %v", vb.Graph().PEs)
	}
	// Tenant b's input rate (composite PE 2) must surface at local PE 0.
	in := vb.EstimatedInputRates()
	if len(in) != 1 {
		t.Fatalf("tenant input rates = %v", in)
	}
	if r := in[0]; math.Abs(r-3) > 0.5 {
		t.Fatalf("tenant b input rate = %v, want ~3", r)
	}
	// Composite PE 2 ("b/src") assignments == tenant-local PE 0 assignments.
	if got, want := vb.AssignedCores(0), v.AssignedCores(2); got != want {
		t.Fatalf("scoped cores = %d, global = %d", got, want)
	}
	if o := vb.Omega(); o < 0.999 {
		t.Fatalf("tenant b omega = %v", o)
	}
	if o := v.TenantMeanOmega(1); o < 0.999 {
		t.Fatalf("tenant b mean omega = %v", o)
	}
}

// TestTenantOmegaFloorViolation: a tenant left without capacity reports
// Ω=0, breaches its floor, and the violation lands in the trace stream
// tagged with the tenant's name.
func TestTenantOmegaFloorViolation(t *testing.T) {
	cfg := twoTenantConfig(5, 5, 600)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var traced bytes.Buffer
	tracer := obs.NewTracer(&traced)
	e.SetTracer(tracer)
	// Deploy only tenant a; tenant b starves.
	sum, err := e.Run(&fixed{deploy: deployTenantA})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Tenants[0].MeanOmega < 0.999 || sum.Tenants[1].MeanOmega != 0 {
		t.Fatalf("tenant omegas = %v / %v", sum.Tenants[0].MeanOmega, sum.Tenants[1].MeanOmega)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(traced.String(), "\n") {
		if !strings.Contains(line, obs.EventOmegaViolation) {
			continue
		}
		if strings.Contains(line, `"tenant":"b"`) {
			found = true
		}
		if strings.Contains(line, `"tenant":"a"`) {
			t.Fatalf("healthy tenant flagged: %s", line)
		}
	}
	if !found {
		t.Fatal("no omega-floor violation traced for starving tenant b")
	}
}

// deployTenantA deploys only twoTenantConfig's tenant a, one m1.large per
// PE, so tenant b starves.
func deployTenantA(v *View, act Control) error {
	for pe := 0; pe < 2; pe++ {
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

// TestTenantCheckpointRestoreByteIdentical: the tenant dimension survives a
// checkpoint round trip — a run interrupted and restored produces the same
// per-tenant series and summary as the uninterrupted run.
func TestTenantCheckpointRestoreByteIdentical(t *testing.T) {
	mkSched := func() Scheduler { return &fixed{deploy: deployEven} }
	coldCfg := twoTenantConfig(5, 5, 1800)
	cold, err := NewEngine(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	coldSum, err := cold.Run(mkSched())
	if err != nil {
		t.Fatal(err)
	}

	warmCfg := twoTenantConfig(5, 5, 1800)
	prefix, err := NewEngine(warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := prefix.RunUntil(context.Background(), mkSched(), 600); err != nil {
		t.Fatal(err)
	}
	snap, err := prefix.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.TenantOmega) != 2 || len(snap.TenantSeriesOmega) != 2*10 {
		t.Fatalf("snapshot tenant tallies: omega %d, series %d", len(snap.TenantOmega), len(snap.TenantSeriesOmega))
	}
	warm, err := Restore(snap, warmCfg)
	if err != nil {
		t.Fatal(err)
	}
	warmSum, err := warm.Run(mkSched())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coldSum, warmSum) {
		t.Fatalf("summaries diverged:\ncold %+v\nwarm %+v", coldSum, warmSum)
	}
	var coldCSV, warmCSV bytes.Buffer
	if err := cold.Collector().WriteCSV(&coldCSV); err != nil {
		t.Fatal(err)
	}
	if err := warm.Collector().WriteCSV(&warmCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldCSV.Bytes(), warmCSV.Bytes()) {
		t.Fatal("per-tenant metric CSVs diverged after restore")
	}
}

// TestTenantSnapshotOntoTenantlessConfig: a snapshot carrying tenant
// tallies must not restore onto a config without tenants.
func TestTenantSnapshotOntoTenantlessConfig(t *testing.T) {
	cfg := twoTenantConfig(5, 5, 600)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(context.Background(), &fixed{deploy: deployEven}, 120); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bare := cfg
	bare.Tenants = nil
	if _, err := Restore(snap, bare); err == nil {
		t.Fatal("tenant snapshot restored onto tenantless config")
	}
}
