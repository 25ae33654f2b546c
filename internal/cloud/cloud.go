// Package cloud models a virtualized IaaS environment as seen by a
// continuous-dataflow execution framework (paper §4): a menu of VM resource
// classes with rated core speeds, network bandwidth and hourly prices; VM
// instances with lifetimes billed at hour boundaries; and a per-VM core
// allocation ledger. The framework has no control over, or knowledge of,
// placement inside the data center — runtime performance arrives from the
// trace/monitoring layer, not from this package.
package cloud

import (
	"errors"
	"fmt"
	"slices"
)

// Class describes a VM resource class C_i: the number of dedicated CPU
// cores N, the rated per-core normalized speed pi (relative to a "standard"
// core with pi = 1), the rated network bandwidth beta, and the fixed hourly
// usage price xi.
type Class struct {
	Name string
	// Cores is the number of dedicated CPU cores per VM of this class.
	Cores int
	// CoreSpeed is the rated normalized processing power pi per core: how
	// many standard-core-seconds of work one core completes per second
	// under ideal conditions.
	CoreSpeed float64
	// NetMbps is the rated network bandwidth in megabits per second.
	NetMbps float64
	// PricePerHour is the on-demand price xi in dollars per hour.
	PricePerHour float64
	// Preemptible marks spot-market capacity: cheaper, but the provider
	// may reclaim the VM at any time (an extension beyond the paper's
	// on-demand-only §4 model; see sim.Config.Preemption).
	Preemptible bool
}

// Capacity returns the class's total rated processing power in
// standard-core-seconds per second (Cores x CoreSpeed); AWS calls the unit
// ECU.
func (c *Class) Capacity() float64 { return float64(c.Cores) * c.CoreSpeed }

// CostPerECUHour returns the price of one unit of rated capacity for one
// hour — the figure of merit the repacking heuristics compare classes by.
func (c *Class) CostPerECUHour() float64 { return c.PricePerHour / c.Capacity() }

// Validate reports whether the class parameters are legal.
func (c *Class) Validate() error {
	if c.Name == "" {
		return errors.New("cloud: class has empty name")
	}
	if c.Cores < 1 {
		return fmt.Errorf("cloud: class %q: cores %d < 1", c.Name, c.Cores)
	}
	if c.CoreSpeed <= 0 {
		return fmt.Errorf("cloud: class %q: core speed %v <= 0", c.Name, c.CoreSpeed)
	}
	if c.NetMbps <= 0 {
		return fmt.Errorf("cloud: class %q: bandwidth %v <= 0", c.Name, c.NetMbps)
	}
	if c.PricePerHour <= 0 {
		return fmt.Errorf("cloud: class %q: price %v <= 0", c.Name, c.PricePerHour)
	}
	return nil
}

// AWS2013Classes returns the first-generation AWS on-demand instance menu
// the paper's evaluation mirrors (§8.1: "same virtual machine instance types
// as provided by the AWS cloud provider with similar performance ratings and
// on-demand pricing per hour"). Speeds are ECUs per core with the m1.small
// core defined as the standard core (1 ECU).
func AWS2013Classes() []*Class {
	return []*Class{
		{Name: "m1.small", Cores: 1, CoreSpeed: 1.0, NetMbps: 100, PricePerHour: 0.06},
		{Name: "m1.medium", Cores: 1, CoreSpeed: 2.0, NetMbps: 100, PricePerHour: 0.12},
		{Name: "m1.large", Cores: 2, CoreSpeed: 2.0, NetMbps: 100, PricePerHour: 0.24},
		{Name: "m1.xlarge", Cores: 4, CoreSpeed: 2.0, NetMbps: 100, PricePerHour: 0.48},
	}
}

// WithSpotMarket returns the menu's classes plus a preemptible twin of
// each at the given price fraction (AWS spot instances historically traded
// around 0.2-0.4x on-demand). Twin names get a "-spot" suffix.
func WithSpotMarket(classes []*Class, priceFraction float64) []*Class {
	out := append([]*Class(nil), classes...)
	for _, c := range classes {
		if c.Preemptible {
			continue
		}
		spot := *c
		spot.Name = c.Name + "-spot"
		spot.PricePerHour = c.PricePerHour * priceFraction
		spot.Preemptible = true
		out = append(out, &spot)
	}
	return out
}

// Menu is an ordered set of VM classes available for acquisition.
type Menu struct {
	classes []*Class
	byName  map[string]*Class
}

// NewMenu validates the classes and returns a menu. The input order is
// preserved for iteration but helpers expose capacity-sorted views.
func NewMenu(classes []*Class) (*Menu, error) {
	if len(classes) == 0 {
		return nil, errors.New("cloud: menu needs at least one class")
	}
	m := &Menu{byName: make(map[string]*Class, len(classes))}
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := m.byName[c.Name]; dup {
			return nil, fmt.Errorf("cloud: duplicate class %q", c.Name)
		}
		m.byName[c.Name] = c
		m.classes = append(m.classes, c)
	}
	return m, nil
}

// MustMenu is NewMenu that panics on error, for tests and examples.
func MustMenu(classes []*Class) *Menu {
	m, err := NewMenu(classes)
	if err != nil {
		panic(err)
	}
	return m
}

// Classes returns the menu's classes in their original order. The slice is
// shared; callers must not mutate it.
func (m *Menu) Classes() []*Class { return m.classes }

// ByName looks a class up by name.
func (m *Menu) ByName(name string) (*Class, bool) {
	c, ok := m.byName[name]
	return c, ok
}

// Largest returns the class with the greatest total capacity, breaking ties
// by lower price. Alg. 1's generic VBP step opens bins of the largest class.
func (m *Menu) Largest() *Class {
	best := m.classes[0]
	for _, c := range m.classes[1:] {
		if c.Capacity() > best.Capacity() ||
			(c.Capacity() == best.Capacity() && c.PricePerHour < best.PricePerHour) {
			best = c
		}
	}
	return best
}

// SmallestFitting returns the cheapest class whose total capacity is at
// least need (standard-core-sec/s), or nil when none fits in one VM. The
// global strategy's RepackPE uses it for best-fit downgrade.
func (m *Menu) SmallestFitting(need float64) *Class {
	var best *Class
	for _, c := range m.classes {
		if c.Capacity() < need {
			continue
		}
		if best == nil || c.PricePerHour < best.PricePerHour ||
			(c.PricePerHour == best.PricePerHour && c.Capacity() < best.Capacity()) {
			best = c
		}
	}
	return best
}

// OnDemand returns a menu restricted to non-preemptible classes. Policies
// that cannot tolerate preemption plan against this view. A menu with no
// preemptible class, or no other kind, is its own view.
func (m *Menu) OnDemand() *Menu {
	preemptible := func(c *Class) bool { return c.Preemptible }
	if !slices.ContainsFunc(m.classes, preemptible) {
		return m
	}
	keep := slices.DeleteFunc(slices.Clone(m.classes), preemptible)
	if len(keep) == 0 {
		return m
	}
	sub, err := NewMenu(keep)
	if err != nil {
		return m // unreachable: classes already validated
	}
	return sub
}

// CheapestPreemptibleFitting returns the cheapest preemptible class whose
// capacity covers need, or nil when the menu has no spot market.
func (m *Menu) CheapestPreemptibleFitting(need float64) *Class {
	var best *Class
	for _, c := range m.classes {
		if !c.Preemptible || c.Capacity() < need {
			continue
		}
		if best == nil || c.PricePerHour < best.PricePerHour {
			best = c
		}
	}
	return best
}
