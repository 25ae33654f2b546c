package experiments

import (
	"strings"
	"testing"
)

func TestSpotMarketShapes(t *testing.T) {
	c := Quick()
	c.HorizonSec = 6 * 3600
	r, err := RunSpotMarket(c, 20, 0.3, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	onDemand, spot := r.Rows[0], r.Rows[1]
	if onDemand.Preemptions != 0 {
		t.Fatalf("on-demand run saw %d preemptions", onDemand.Preemptions)
	}
	if spot.Preemptions == 0 {
		t.Fatal("spot run saw no preemptions — market unused?")
	}
	// Both hold the constraint; spot must be cheaper.
	if !onDemand.MeetsOmega || !spot.MeetsOmega {
		t.Fatalf("constraint missed: ondemand %.3f spot %.3f",
			onDemand.Omega, spot.Omega)
	}
	if spot.CostUSD >= onDemand.CostUSD {
		t.Fatalf("spot $%.2f not cheaper than on-demand $%.2f",
			spot.CostUSD, onDemand.CostUSD)
	}
	if !strings.Contains(r.Table(), "Spot market") {
		t.Fatal("table header missing")
	}
}

func TestSpotMarketValidation(t *testing.T) {
	if _, err := RunSpotMarket(Quick(), 20, 0, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := RunSpotMarket(Quick(), 20, 1.5, 1); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := RunSpotMarket(Quick(), 20, 0.3, 0); err == nil {
		t.Fatal("zero MTBF accepted")
	}
}
