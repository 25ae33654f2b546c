package cloud

import (
	"math"
	"strings"
	"testing"
)

func TestWithSpotMarket(t *testing.T) {
	classes := WithSpotMarket(AWS2013Classes(), 0.3)
	if len(classes) != 8 {
		t.Fatalf("classes = %d, want 8", len(classes))
	}
	m := MustMenu(classes)
	spot, ok := m.ByName("m1.xlarge-spot")
	if !ok {
		t.Fatal("spot twin missing")
	}
	if !spot.Preemptible {
		t.Fatal("twin not preemptible")
	}
	if math.Abs(spot.PricePerHour-0.48*0.3) > 1e-12 {
		t.Fatalf("spot price = %v", spot.PricePerHour)
	}
	onDemand, _ := m.ByName("m1.xlarge")
	if onDemand.Preemptible {
		t.Fatal("original class mutated")
	}
	if spot.Cores != onDemand.Cores || spot.CoreSpeed != onDemand.CoreSpeed {
		t.Fatal("twin capacity differs")
	}
	// Applying twice does not double the spot classes' twins.
	again := WithSpotMarket(classes, 0.3)
	count := 0
	for _, c := range again {
		if strings.Contains(c.Name, "-spot-spot") {
			count++
		}
	}
	if count != 0 {
		t.Fatal("spot twins were twinned again")
	}
}

func TestOnDemandView(t *testing.T) {
	m := MustMenu(WithSpotMarket(AWS2013Classes(), 0.3))
	od := m.OnDemand()
	if od == m || len(od.Classes()) != 4 {
		t.Fatalf("on-demand classes = %d", len(od.Classes()))
	}
	for _, c := range od.Classes() {
		if c.Preemptible {
			t.Fatalf("preemptible %s leaked into on-demand view", c.Name)
		}
	}
	// Largest/SmallestFitting on the view never pick spot.
	if od.Largest().Preemptible {
		t.Fatal("largest is preemptible")
	}
	if c := od.SmallestFitting(1); c == nil || c.Preemptible {
		t.Fatalf("smallest fitting = %v", c)
	}
	// A menu without spot twins is its own on-demand view, not a copy.
	if plain := MustMenu(AWS2013Classes()); plain.OnDemand() != plain {
		t.Fatal("on-demand view of an on-demand menu is a new menu")
	}
	// A menu with no on-demand classes returns itself rather than nothing.
	spotOnly := MustMenu([]*Class{{Name: "s", Cores: 1, CoreSpeed: 1, NetMbps: 1, PricePerHour: 0.01, Preemptible: true}})
	if len(spotOnly.OnDemand().Classes()) != 1 {
		t.Fatal("spot-only menu lost its classes")
	}
}

func TestCheapestPreemptibleFitting(t *testing.T) {
	m := MustMenu(WithSpotMarket(AWS2013Classes(), 0.3))
	c := m.CheapestPreemptibleFitting(1.5)
	if c == nil || !c.Preemptible {
		t.Fatalf("got %v", c)
	}
	// Cheapest preemptible with >= 1.5 ECU: medium-spot ($0.036) beats
	// large-spot ($0.072) and xlarge-spot ($0.144).
	if c.Name != "m1.medium-spot" {
		t.Fatalf("got %s", c.Name)
	}
	if m.CheapestPreemptibleFitting(100) != nil {
		t.Fatal("impossible need satisfied")
	}
	plain := MustMenu(AWS2013Classes())
	if plain.CheapestPreemptibleFitting(1) != nil {
		t.Fatal("no spot market but got a class")
	}
}
