package cloud

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClassValidate(t *testing.T) {
	ok := Class{Name: "c", Cores: 2, CoreSpeed: 2, NetMbps: 100, PricePerHour: 0.24}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Class{
		{Name: "", Cores: 1, CoreSpeed: 1, NetMbps: 1, PricePerHour: 1},
		{Name: "c", Cores: 0, CoreSpeed: 1, NetMbps: 1, PricePerHour: 1},
		{Name: "c", Cores: 1, CoreSpeed: 0, NetMbps: 1, PricePerHour: 1},
		{Name: "c", Cores: 1, CoreSpeed: 1, NetMbps: 0, PricePerHour: 1},
		{Name: "c", Cores: 1, CoreSpeed: 1, NetMbps: 1, PricePerHour: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad class %d accepted", i)
		}
	}
}

func TestAWS2013Menu(t *testing.T) {
	m := MustMenu(AWS2013Classes())
	if len(m.Classes()) != 4 {
		t.Fatalf("menu has %d classes", len(m.Classes()))
	}
	small, ok := m.ByName("m1.small")
	if !ok || small.Capacity() != 1 {
		t.Fatalf("m1.small capacity = %v", small.Capacity())
	}
	xl := m.Largest()
	if xl.Name != "m1.xlarge" || xl.Capacity() != 8 {
		t.Fatalf("largest = %v cap %v", xl.Name, xl.Capacity())
	}
	// 2013 AWS pricing is linear in ECU for m1.*: $0.06/ECU-hour.
	for _, c := range m.Classes() {
		if math.Abs(c.CostPerECUHour()-0.06) > 1e-9 {
			t.Fatalf("%s: $/ECU-h = %v", c.Name, c.CostPerECUHour())
		}
	}
}

func TestMenuSmallestFitting(t *testing.T) {
	m := MustMenu(AWS2013Classes())
	cases := []struct {
		need float64
		want string
	}{
		{0.5, "m1.small"},
		{1.0, "m1.small"},
		{1.5, "m1.medium"},
		{2.0, "m1.medium"},
		{3.0, "m1.large"},
		{4.0, "m1.large"},
		{5.0, "m1.xlarge"},
		{8.0, "m1.xlarge"},
	}
	for _, c := range cases {
		got := m.SmallestFitting(c.need)
		if got == nil || got.Name != c.want {
			t.Fatalf("SmallestFitting(%v) = %v, want %s", c.need, got, c.want)
		}
	}
	if m.SmallestFitting(9) != nil {
		t.Fatal("SmallestFitting(9) should be nil: nothing fits")
	}
}

func TestMenuRejectsDuplicates(t *testing.T) {
	cs := []*Class{
		{Name: "a", Cores: 1, CoreSpeed: 1, NetMbps: 1, PricePerHour: 1},
		{Name: "a", Cores: 2, CoreSpeed: 1, NetMbps: 1, PricePerHour: 1},
	}
	if _, err := NewMenu(cs); err == nil {
		t.Fatal("duplicate class accepted")
	}
	if _, err := NewMenu(nil); err == nil {
		t.Fatal("empty menu accepted")
	}
}

func TestSortedByCapacity(t *testing.T) {
	m := MustMenu(AWS2013Classes())
	s := m.SortedByCapacity()
	for i := 1; i < len(s); i++ {
		if s[i-1].Capacity() < s[i].Capacity() {
			t.Fatalf("not sorted: %v", s)
		}
	}
	if s[0].Name != "m1.xlarge" {
		t.Fatalf("first = %s", s[0].Name)
	}
}

func TestBilledHoursRoundsUp(t *testing.T) {
	c := AWS2013Classes()[0]
	cases := []struct {
		start, stop, now int64
		want             int64
	}{
		{0, -1, 0, 1},        // just started: 1 hour minimum
		{0, -1, 1, 1},        // 1s in: still 1 hour
		{0, -1, 3599, 1},     // just under the boundary
		{0, -1, 3600, 1},     // exactly one hour: 1 hour
		{0, -1, 3601, 2},     // over: 2 hours
		{0, -1, 7200, 2},     // exactly two hours
		{0, 1800, 100000, 1}, // stopped mid-hour: billed 1
		{0, 3601, 100000, 2}, // stopped just past boundary: billed 2
		{100, -1, 3700, 1},   // offset start
		{100, -1, 3701, 2},   // offset start, just over
	}
	for i, tc := range cases {
		v := &VM{ID: 0, Class: c, StartSec: tc.start, StopSec: tc.stop}
		if got := v.BilledHours(tc.now); got != tc.want {
			t.Fatalf("case %d: BilledHours = %d, want %d", i, got, tc.want)
		}
	}
}

func TestAccruedCost(t *testing.T) {
	c := AWS2013Classes()[3] // m1.xlarge $0.48/h
	v := &VM{Class: c, StartSec: 0, StopSec: -1}
	if got := v.AccruedCost(3601); math.Abs(got-0.96) > 1e-9 {
		t.Fatalf("cost = %v, want 0.96", got)
	}
}

func TestSecondsToHourBoundary(t *testing.T) {
	v := &VM{Class: AWS2013Classes()[0], StartSec: 1000, StopSec: -1}
	if got := v.SecondsToHourBoundary(1000); got != SecondsPerHour {
		t.Fatalf("at start: %d", got)
	}
	if got := v.SecondsToHourBoundary(1000 + 3599); got != 1 {
		t.Fatalf("1s before boundary: %d", got)
	}
	if got := v.SecondsToHourBoundary(1000 + 3600); got != 0 {
		t.Fatalf("at boundary: %d", got)
	}
	if got := v.SecondsToHourBoundary(1000 + 3601); got != 3599 {
		t.Fatalf("1s after boundary: %d", got)
	}
}

func TestFleetLifecycle(t *testing.T) {
	m := MustMenu(AWS2013Classes())
	f := NewFleet(m)
	large, _ := m.ByName("m1.large")
	v, err := f.Acquire(large, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.ActiveCount() != 1 {
		t.Fatalf("active = %d", f.ActiveCount())
	}
	if err := f.AssignCores(v.ID, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.AssignCores(v.ID, 1, 0); err == nil {
		t.Fatal("oversubscription accepted")
	}
	if v.FreeCores() != 0 {
		t.Fatalf("free cores = %d", v.FreeCores())
	}
	if err := f.Release(v.ID, 100); err == nil {
		t.Fatal("release with assigned cores accepted")
	}
	if err := f.UnassignCores(v.ID, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(v.ID, 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(v.ID, 200); err == nil {
		t.Fatal("double release accepted")
	}
	if err := f.AssignCores(v.ID, 1, 300); err == nil {
		t.Fatal("assign on released VM accepted")
	}
	if f.ActiveCount() != 0 {
		t.Fatalf("active = %d after release", f.ActiveCount())
	}
	// Billed a full hour even though released after 100s.
	if got := f.TotalCost(100000); math.Abs(got-0.24) > 1e-9 {
		t.Fatalf("total cost = %v", got)
	}
}

func TestFleetErrors(t *testing.T) {
	m := MustMenu(AWS2013Classes())
	f := NewFleet(m)
	if _, err := f.Acquire(nil, 0); err == nil {
		t.Fatal("nil class accepted")
	}
	offMenu := &Class{Name: "ghost", Cores: 1, CoreSpeed: 1, NetMbps: 1, PricePerHour: 1}
	if _, err := f.Acquire(offMenu, 0); err == nil {
		t.Fatal("off-menu class accepted")
	}
	if _, err := f.Get(42); err == nil {
		t.Fatal("Get(42) on empty fleet accepted")
	}
	if err := f.Release(0, 0); err == nil {
		t.Fatal("release of unknown VM accepted")
	}
	v, _ := f.Acquire(m.Largest(), 50)
	if err := f.Release(v.ID, 10); err == nil {
		t.Fatal("release before start accepted")
	}
	if err := f.AssignCores(v.ID, 0, 0); err == nil {
		t.Fatal("assign 0 cores accepted")
	}
	if err := f.UnassignCores(v.ID, 1); err == nil {
		t.Fatal("unassign with none used accepted")
	}
}

func TestPropertyBillingMonotoneAndMinimum(t *testing.T) {
	c := AWS2013Classes()[1]
	f := func(startRaw, d1Raw, d2Raw uint32) bool {
		start := int64(startRaw % 100000)
		d1 := int64(d1Raw % 50000)
		d2 := d1 + int64(d2Raw%50000)
		v := &VM{Class: c, StartSec: start, StopSec: -1}
		h1 := v.BilledHours(start + d1)
		h2 := v.BilledHours(start + d2)
		// Monotone in time, at least one hour, and never more than
		// duration/3600 + 1.
		return h1 >= 1 && h2 >= h1 && h1 <= d1/SecondsPerHour+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCostEqualsHoursTimesPrice(t *testing.T) {
	menu := MustMenu(AWS2013Classes())
	f := func(pick uint8, dur uint32) bool {
		cs := menu.Classes()
		c := cs[int(pick)%len(cs)]
		v := &VM{Class: c, StartSec: 0, StopSec: -1}
		now := int64(dur % 1000000)
		want := float64(v.BilledHours(now)) * c.PricePerHour
		return math.Abs(v.AccruedCost(now)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
