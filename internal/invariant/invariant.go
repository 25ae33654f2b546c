// Package invariant is the simulator's runtime correctness harness: a
// pluggable per-step checker the engine calls at the end of every simulated
// interval (behind a nil-check hook, like the tracer) that asserts
// conservation-style laws over a snapshot of engine state. The laws encode
// what must be true of any run regardless of the scheduler driving it —
// message conservation at every PE's queue, non-negative buffers, monotone
// billing, fleet core accounting, Ω/Γ bounds, and audit/trace agreement —
// so a logic error in flow propagation or billing surfaces at the interval
// it happens, with the law name and sim-second attached, instead of as a
// subtly wrong figure three layers up.
//
// The package depends only on the standard library: the engine fills a
// plain-data State and the laws assert over it, so the checker can also be
// driven directly by tests and fuzz targets with synthetic states.
package invariant

import (
	"errors"
	"fmt"
	"sync"
)

// DefaultEpsilon tolerates float accumulation across a step's per-VM flow
// arithmetic (the engine clamps queues below 1e-9 to zero, and sums run in
// sorted-key order, so the residual is far below this).
const DefaultEpsilon = 1e-6

// State is the engine-state snapshot one step hands to the checker. All
// quantities are plain data so the package needs no simulator imports;
// slices indexed by PE have one entry per graph PE. The engine reuses one
// State across steps — laws must not retain it.
type State struct {
	// Sec is the simulation clock at the END of the checked interval.
	Sec int64
	// IntervalSec is the interval length dt.
	IntervalSec int64

	// Per-PE flow accounting for the interval just executed. In and
	// Processed are rates (msg/s); QueueBefore/QueueAfter are messages
	// buffered at the interval's start (after crash cleanup) and end.
	In          []float64
	Processed   []float64
	QueueBefore []float64
	QueueAfter  []float64
	// MinQueue is the smallest single per-VM queue cell after the step
	// (negative means a buffer went below zero somewhere).
	MinQueue float64
	// Backlog is the total queued messages across all PEs.
	Backlog float64

	// Omega is the interval's relative application throughput; Gamma the
	// normalized application value, bounded by the graph's alternate value
	// range [GammaMin, GammaMax].
	Omega    float64
	Gamma    float64
	GammaMin float64
	GammaMax float64

	// CostUSD is cumulative billing μ at the end of the interval;
	// PrevCostUSD is μ at the end of the previous interval (0 initially).
	CostUSD     float64
	PrevCostUSD float64

	// LostMessages and MigratedBytes are the engine's cumulative tallies.
	LostMessages  float64
	MigratedBytes float64

	// Crash/preemption counters and the number of crash/preempt events the
	// audit path recorded — the two are maintained at different sites and
	// must agree.
	Crashes       int
	Preemptions   int
	CrashEvents   int
	PreemptEvents int

	// VMs snapshots every VM ever acquired; Placements lists every
	// (PE, VM, cores>0) assignment cell.
	VMs        []VMState
	Placements []Placement

	// TenantOmega is each tenant's interval Ω in a multi-tenant run (nil
	// otherwise). Each entry obeys the same [0, 1] bound as Omega.
	TenantOmega []float64

	// fleetIndex and fleetCores are the fleet law's scratch (VM id → index
	// into VMs, and the cores placed per VM). They live with the State the
	// engine reuses, so checking the fleet allocates nothing once they have
	// grown to the fleet's size.
	fleetIndex map[int]int
	fleetCores []int
}

// VMState is the billing- and capacity-relevant view of one VM.
type VMState struct {
	ID         int
	RatedCores int
	UsedCores  int
	Stopped    bool
	Pending    bool
	BilledUSD  float64
}

// Placement is one PE-to-VM core assignment.
type Placement struct {
	PE    int
	VM    int
	Cores int
}

// Violation is a broken law: which law, at which sim-second, with a compact
// state snapshot for diagnosis. It is the typed error Run/RunContext return
// when a strict checker trips; detect it with invariant.As or errors.As.
type Violation struct {
	// Law is the name of the broken law (see DefaultLaws).
	Law string
	// Sec is the simulation time at the end of the violating interval.
	Sec int64
	// Msg describes the violated relation with the offending values.
	Msg string
	// Snapshot captures headline state at the violation.
	Snapshot Snapshot
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("invariant: law %q violated at t=%ds: %s", v.Law, v.Sec, v.Msg)
}

// As extracts a *Violation from an error chain.
func As(err error) (*Violation, bool) {
	var v *Violation
	if errors.As(err, &v) {
		return v, true
	}
	return nil, false
}

// Snapshot is the scalar state summary attached to every violation.
type Snapshot struct {
	Omega        float64
	Gamma        float64
	CostUSD      float64
	Backlog      float64
	VMs          int
	UsedCores    int
	Crashes      int
	Preemptions  int
	LostMessages float64
}

// snapshot reduces a State to its headline scalars.
func snapshot(st *State) Snapshot {
	s := Snapshot{
		Omega:        st.Omega,
		Gamma:        st.Gamma,
		CostUSD:      st.CostUSD,
		Backlog:      st.Backlog,
		Crashes:      st.Crashes,
		Preemptions:  st.Preemptions,
		LostMessages: st.LostMessages,
	}
	for _, vm := range st.VMs {
		if !vm.Stopped {
			s.VMs++
			s.UsedCores += vm.UsedCores
		}
	}
	return s
}

// Law is one named invariant: Check returns "" when the state satisfies it,
// or a message describing the violated relation.
type Law struct {
	Name  string
	Check func(st *State, eps float64) string
}

// Checker evaluates a set of laws against every step's state and records
// the violations. The zero value is usable: DefaultEpsilon, lenient (record
// and continue), all default laws. A Checker belongs to one engine; it is
// internally locked so observers may read counts while a run is stepping.
type Checker struct {
	// Epsilon is the conservation tolerance (<= 0 means DefaultEpsilon).
	Epsilon float64
	// Strict aborts the run at the first violation: the engine returns the
	// Violation from Run/RunContext. Lenient checkers record violations
	// (and the engine traces them) but let the run continue.
	Strict bool
	// Laws overrides the law set; nil means DefaultLaws().
	Laws []Law

	mu         sync.Mutex
	violations []Violation
}

// New returns a lenient checker with the default laws.
func New() *Checker { return &Checker{} }

// NewStrict returns a checker that aborts the run on the first violation.
func NewStrict() *Checker { return &Checker{Strict: true} }

// Check evaluates every law against st, records each violation, and returns
// the first one found this step (nil when the state is clean).
func (c *Checker) Check(st *State) *Violation {
	eps := c.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	laws := c.Laws
	if laws == nil {
		laws = defaultLaws
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var first *Violation
	for _, law := range laws {
		msg := law.Check(st, eps)
		if msg == "" {
			continue
		}
		c.violations = append(c.violations, Violation{
			Law: law.Name, Sec: st.Sec, Msg: msg, Snapshot: snapshot(st)})
		if first == nil {
			first = &c.violations[len(c.violations)-1]
		}
	}
	return first
}

// Count reports how many violations have been recorded.
func (c *Checker) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations)
}

// Violations returns a copy of the recorded violations in step order.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Reset clears recorded violations (for checker reuse across runs in
// tests; engines built via scenario get a fresh checker each).
func (c *Checker) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = c.violations[:0]
}
