package experiments

import (
	"strings"
	"testing"
)

func TestFig2Characterization(t *testing.T) {
	r, err := RunFig2(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.VMs) != 4 {
		t.Fatalf("VMs = %d", len(r.VMs))
	}
	for i, s := range r.VMs {
		if s.CoV < 0.005 {
			t.Fatalf("vm %d: CoV %v — no variability generated", i, s.CoV)
		}
		if s.Mean < 0.5 || s.Mean > 1.0 {
			t.Fatalf("vm %d: mean %v implausible", i, s.Mean)
		}
	}
	// The pooled deviation should show the paper's headline: double-digit
	// percentage swings around the mean.
	if r.Deviation.Max < 0.10 && -r.Deviation.Min < 0.10 {
		t.Fatalf("relative deviation extremes [%v, %v] below 10%%", r.Deviation.Min, r.Deviation.Max)
	}
	if !strings.Contains(r.Table(), "Fig 2") {
		t.Fatal("table header missing")
	}
}

func TestFig3Characterization(t *testing.T) {
	r, err := RunFig3(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency.Mean <= 0 || r.Latency.Mean > 0.01 {
		t.Fatalf("latency mean %v out of millisecond range", r.Latency.Mean)
	}
	if r.Bandwidth.Mean < 20 || r.Bandwidth.Mean > 100 {
		t.Fatalf("bandwidth mean %v out of range", r.Bandwidth.Mean)
	}
	if r.Bandwidth.CoV < 0.01 {
		t.Fatal("bandwidth shows no variability")
	}
	if !strings.Contains(r.Table(), "Fig 3") {
		t.Fatal("table header missing")
	}
}

func TestFig4Shape(t *testing.T) {
	c := Quick()
	r, err := RunFig4(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byScenario := map[string][]RunResult{}
	for _, row := range r.Rows {
		byScenario[row.Scenario] = append(byScenario[row.Scenario], row)
	}
	// Without variability every static deployment meets the constraint.
	for _, row := range byScenario["none"] {
		if !row.MeetsOmega {
			t.Fatalf("no-variability %s missed: omega %.3f", row.Policy, row.Omega)
		}
	}
	// With both variabilities none does (the paper's headline).
	for _, row := range byScenario["both"] {
		if row.MeetsOmega {
			t.Fatalf("both-variability %s unexpectedly met: omega %.3f", row.Policy, row.Omega)
		}
	}
	// Both variabilities strictly degrade each policy's throughput.
	for i, none := range byScenario["none"] {
		both := byScenario["both"][i]
		if both.Omega >= none.Omega {
			t.Fatalf("%s: omega did not degrade (%.3f -> %.3f)",
				none.Policy, none.Omega, both.Omega)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	c := Quick()
	r, err := RunFig5(c)
	if err != nil {
		t.Fatal(err)
	}
	// Static throughput headroom shrinks as the data rate grows: compare
	// each policy at the lowest vs highest rate.
	first := map[string]float64{}
	last := map[string]float64{}
	for _, row := range r.Rows {
		if row.Rate == c.Rates[0] {
			first[row.Policy] = row.Omega
		}
		if row.Rate == c.Rates[len(c.Rates)-1] {
			last[row.Policy] = row.Omega
		}
	}
	for p, lo := range first {
		if hi := last[p]; hi > lo+1e-9 {
			t.Fatalf("%s: omega grew with rate (%.3f -> %.3f)", p, lo, hi)
		}
	}
	// All meet the constraint without variability.
	for _, row := range r.Rows {
		if !row.MeetsOmega {
			t.Fatalf("%s@%v missed without variability: %.3f", row.Policy, row.Rate, row.Omega)
		}
	}
}

func TestFig6AdaptiveMeetsConstraint(t *testing.T) {
	c := Quick()
	r, err := RunFig6(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if !row.MeetsOmega {
			t.Fatalf("%s@%v missed under infra variability: %.3f", row.Policy, row.Rate, row.Omega)
		}
	}
	if r.Scenario != "infra" {
		t.Fatal("wrong scenario")
	}
}

func TestFig7ShapeGlobalWinsHighRates(t *testing.T) {
	c := Quick()
	r, err := RunFig7(c)
	if err != nil {
		t.Fatal(err)
	}
	theta := map[string]map[float64]float64{"local": {}, "global": {}}
	for _, row := range r.Rows {
		if !row.MeetsOmega {
			t.Fatalf("%s@%v missed under data variability: %.3f", row.Policy, row.Rate, row.Omega)
		}
		theta[row.Policy][row.Rate] = row.Theta
	}
	hi := c.Rates[len(c.Rates)-1]
	if theta["global"][hi] < theta["local"][hi] {
		t.Fatalf("at %v msg/s: global theta %.4f below local %.4f (paper: global wins above ~10 msg/s)",
			hi, theta["global"][hi], theta["local"][hi])
	}
}

func TestFig8And9DynamismSaves(t *testing.T) {
	c := Quick()
	f8, err := RunFig8(c)
	if err != nil {
		t.Fatal(err)
	}
	f9, err := DeriveFig9(f8)
	if err != nil {
		t.Fatal(err)
	}
	// At every rate, global with dynamism must cost no more than without.
	for i, s := range f9.GlobalSavings {
		if s < -1e-9 {
			t.Fatalf("rate %v: dynamism cost extra (%.1f%%)", f9.Rates[i], s)
		}
	}
	// Somewhere in the sweep the savings are material (paper: ~15%).
	best := 0.0
	for _, s := range f9.GlobalSavings {
		if s > best {
			best = s
		}
	}
	if best < 5 {
		t.Fatalf("peak global dynamism savings %.1f%% — too small to reproduce Fig 9", best)
	}
	// The extreme comparison favours global everywhere.
	for i, s := range f9.GlobalVsLocalNoDyn {
		if s < 0 {
			t.Fatalf("rate %v: global costlier than local-nodyn by %.1f%%", f9.Rates[i], -s)
		}
	}
	if !strings.Contains(f9.Table(), "Fig 9") {
		t.Fatal("table header missing")
	}
}

func TestVMClassTable(t *testing.T) {
	tbl := VMClassTable()
	for _, want := range []string{"m1.small", "m1.xlarge", "0.48"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestDeriveFig9MissingData(t *testing.T) {
	if _, err := DeriveFig9(Fig8Result{Rows: []RunResult{{Policy: "global", Rate: 5}}}); err == nil {
		t.Fatal("missing policies accepted")
	}
}
