package experiments

import (
	"strings"
	"testing"
)

func TestFaultToleranceShapes(t *testing.T) {
	c := Quick()
	c.HorizonSec = 4 * 3600
	r, err := RunFaultTolerance(c, 20, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byPolicy := map[string]FaultRow{}
	for _, row := range r.Rows {
		byPolicy[row.Policy] = row
	}
	static := byPolicy["global-static"]
	dyn := byPolicy["global"]
	nodyn := byPolicy["global-nodyn"]

	// Crashes must actually occur for everyone.
	for name, row := range byPolicy {
		if row.Crashes == 0 {
			t.Fatalf("%s: no crashes injected", name)
		}
	}
	// The static deployment cannot replace dead VMs: it ends far below the
	// adaptive policies and misses the constraint.
	if static.MeetsOmega {
		t.Fatalf("static met the constraint through crashes: omega %.3f", static.Omega)
	}
	if static.Omega >= dyn.Omega {
		t.Fatalf("static omega %.3f not below adaptive %.3f", static.Omega, dyn.Omega)
	}
	// Adaptive policies re-provision and keep the constraint.
	if !dyn.MeetsOmega || !nodyn.MeetsOmega {
		t.Fatalf("adaptive missed under failures: dyn %.3f nodyn %.3f",
			dyn.Omega, nodyn.Omega)
	}
	// Dynamism keeps recovery no more expensive.
	if dyn.CostUSD > nodyn.CostUSD+1e-9 {
		t.Fatalf("dynamism made recovery costlier: $%.2f vs $%.2f",
			dyn.CostUSD, nodyn.CostUSD)
	}
	if !strings.Contains(r.Table(), "Fault tolerance") {
		t.Fatal("table header missing")
	}
}

func TestFaultToleranceValidation(t *testing.T) {
	if _, err := RunFaultTolerance(Quick(), 20, 0); err == nil {
		t.Fatal("zero MTBF accepted")
	}
}
