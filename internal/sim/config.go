// Package sim is a discrete-interval simulator for continuous dataflows on
// an elastic IaaS cloud — the substrate the paper's evaluation runs on
// (§8.1). It advances a fluid-flow model of the dataflow in fixed intervals:
// external messages arrive at input PEs according to rate profiles, PEs
// process messages on the CPU cores assigned to them (scaled by replayed
// per-VM performance coefficients), inter-VM edges are capped by replayed
// pairwise bandwidth, unprocessed messages queue in per-VM buffers, and VM
// usage is billed at hour boundaries. A Scheduler drives deployment and
// runtime adaptation through a monitored View and a constrained Actions API,
// exactly mirroring the control surface the paper's heuristics assume.
package sim

import (
	"errors"
	"fmt"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/trace"
)

// Config assembles a simulation scenario.
type Config struct {
	// Graph is the dynamic dataflow to execute.
	Graph *dataflow.Graph
	// Menu lists the VM classes available for acquisition.
	Menu *cloud.Menu
	// Perf supplies runtime infrastructure behaviour (trace replay or
	// ideal). Nil defaults to trace.NewIdeal().
	Perf trace.Provider
	// Inputs maps every input PE index to its external rate profile.
	Inputs map[int]rates.Profile
	// IntervalSec is the adaptation interval length (default 60).
	IntervalSec int64
	// HorizonSec is the total simulated time (must be a positive multiple
	// of IntervalSec).
	HorizonSec int64
	// Seed decorrelates VM trace-window assignment between runs.
	Seed int64
	// MonitorAlpha is the EWMA smoothing for monitored rates and
	// coefficients (default 0.5).
	MonitorAlpha float64
	// MaxVMs bounds fleet growth as a safety net against runaway policies
	// (default 512).
	MaxVMs int
	// Failures injects VM crashes (default: none). Applies to every VM.
	Failures FailureModel
	// Preemption additionally reclaims preemptible-class (spot) VMs; it is
	// ignored for on-demand classes. Typical spot markets preempt far more
	// often than hardware fails.
	Preemption FailureModel
	// ControlFaults degrades the control plane itself: provisioning delays,
	// transient acquisition failures, and stale/noisy monitoring (default:
	// a perfectly reliable control plane).
	ControlFaults *ControlFaults
	// Audit records every scheduler action (AuditLog / WriteAuditJSONL).
	Audit bool
	// OmegaFloor, when positive, is the QoS constraint Ω̃: intervals whose
	// relative throughput falls below it emit an omega-violation trace
	// event. Purely observational — it never alters the simulation.
	OmegaFloor float64
	// Checker, when non-nil, asserts conservation-style invariants over
	// engine state at the end of every interval (behind a nil-check hook,
	// like the tracer). A strict checker aborts the run with a typed
	// *invariant.Violation; a lenient one records violations (readable via
	// Engine.Checker) and emits an invariant-violation trace event.
	Checker *invariant.Checker
	// Tenants partitions Graph into independent dataflows sharing the fleet:
	// each entry scopes a contiguous PE (and choice-group) range of the
	// composite graph to one tenant with its own Ω floor and priority. Empty
	// means the classic single-tenant run, whose behaviour and output bytes
	// are unchanged.
	Tenants []Tenant
	// SummaryOnly keeps no per-interval metric rows: the collector only
	// folds each interval into the run's summary, NewEngine reserves no
	// series, and Checkpoint returns an error, since a state/v1 snapshot
	// carries the rows. The summary is bit for bit the one a run that keeps
	// its rows reports. For callers that read nothing but the summary, such
	// as sweep jobs; anything that writes the series or checkpoints keeps
	// the rows.
	SummaryOnly bool
}

// Tenant scopes one dataflow of a multi-tenant run to a contiguous slice of
// the composite graph. The scenario builder lowers a tenants block onto one
// shared graph and fills these ranges; the engine keeps dense per-tenant
// tallies (Ω, Γ, attributed spend) indexed by position in Config.Tenants.
type Tenant struct {
	// Name labels the tenant in metrics columns, gauge labels, trace events,
	// and decisions.
	Name string
	// LoPE/HiPE bound the tenant's PEs in the composite graph: [LoPE, HiPE).
	LoPE, HiPE int
	// LoChoice/HiChoice bound the tenant's choice groups (routing slots) in
	// the composite graph: [LoChoice, HiChoice).
	LoChoice, HiChoice int
	// OmegaFloor is the tenant's QoS constraint Ω̃: intervals where the
	// tenant's relative throughput falls below it emit a tenant-tagged
	// omega-violation event. 0 disables the check.
	OmegaFloor float64
	// Priority ranks the tenant for fairness arbitration (higher wins).
	Priority int
	// Graph is the tenant's standalone dataflow — the same shape as the
	// composite PEs [LoPE, HiPE), with local indices. Per-tenant Γ is
	// computed against it.
	Graph *dataflow.Graph
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if c.Graph == nil {
		return errors.New("sim: config needs a graph")
	}
	if c.Menu == nil {
		return errors.New("sim: config needs a VM class menu")
	}
	if c.Perf == nil {
		c.Perf = trace.NewIdeal()
	}
	if c.IntervalSec == 0 {
		c.IntervalSec = 60
	}
	if c.IntervalSec <= 0 {
		return fmt.Errorf("sim: interval %d <= 0", c.IntervalSec)
	}
	if c.HorizonSec <= 0 || c.HorizonSec%c.IntervalSec != 0 {
		return fmt.Errorf("sim: horizon %d must be a positive multiple of interval %d", c.HorizonSec, c.IntervalSec)
	}
	if c.MonitorAlpha == 0 {
		c.MonitorAlpha = 0.5
	}
	if !(c.MonitorAlpha > 0 && c.MonitorAlpha <= 1) {
		return fmt.Errorf("sim: monitor alpha %v outside (0,1]", c.MonitorAlpha)
	}
	if c.MaxVMs == 0 {
		c.MaxVMs = 512
	}
	if c.MaxVMs < 1 {
		return fmt.Errorf("sim: max VMs %d < 1", c.MaxVMs)
	}
	inputs := c.Graph.Inputs()
	if len(c.Inputs) != len(inputs) {
		return fmt.Errorf("sim: %d input profiles for %d input PEs", len(c.Inputs), len(inputs))
	}
	for _, pe := range inputs {
		if c.Inputs[pe] == nil {
			return fmt.Errorf("sim: missing rate profile for input PE %q", c.Graph.PEs[pe].Name)
		}
	}
	for pe := range c.Inputs {
		if pe < 0 || pe >= c.Graph.N() || len(c.Graph.Predecessors(pe)) != 0 {
			return fmt.Errorf("sim: profile attached to non-input PE %d", pe)
		}
	}
	if c.OmegaFloor < 0 || c.OmegaFloor > 1 {
		return fmt.Errorf("sim: omega floor %v outside [0,1]", c.OmegaFloor)
	}
	if err := c.validateTenants(); err != nil {
		return err
	}
	return c.ControlFaults.normalize()
}

// validateTenants checks that the tenant ranges tile cleanly onto the
// composite graph: ascending, non-overlapping, with standalone graphs whose
// shape matches their composite slice.
func (c *Config) validateTenants() error {
	if len(c.Tenants) == 0 {
		return nil
	}
	seen := map[string]bool{}
	prevPE, prevChoice := 0, 0
	for i, t := range c.Tenants {
		if t.Name == "" {
			return fmt.Errorf("sim: tenant %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("sim: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if t.LoPE < prevPE || t.LoPE >= t.HiPE || t.HiPE > c.Graph.N() {
			return fmt.Errorf("sim: tenant %q PE range [%d,%d) invalid or overlapping", t.Name, t.LoPE, t.HiPE)
		}
		nChoices := len(c.Graph.Choices)
		if t.LoChoice < prevChoice || t.LoChoice > t.HiChoice || t.HiChoice > nChoices {
			return fmt.Errorf("sim: tenant %q choice range [%d,%d) invalid or overlapping", t.Name, t.LoChoice, t.HiChoice)
		}
		if t.Graph == nil {
			return fmt.Errorf("sim: tenant %q has no standalone graph", t.Name)
		}
		if t.Graph.N() != t.HiPE-t.LoPE {
			return fmt.Errorf("sim: tenant %q graph has %d PEs, range holds %d", t.Name, t.Graph.N(), t.HiPE-t.LoPE)
		}
		if len(t.Graph.Choices) != t.HiChoice-t.LoChoice {
			return fmt.Errorf("sim: tenant %q graph has %d choices, range holds %d", t.Name, len(t.Graph.Choices), t.HiChoice-t.LoChoice)
		}
		if t.OmegaFloor < 0 || t.OmegaFloor > 1 {
			return fmt.Errorf("sim: tenant %q omega floor %v outside [0,1]", t.Name, t.OmegaFloor)
		}
		prevPE, prevChoice = t.HiPE, t.HiChoice
	}
	return nil
}

// Scheduler decides deployment and runtime adaptation. Deploy runs once
// before the first interval; Adapt runs at the start of every subsequent
// interval (the paper's periodic re-evaluation, §5). Policies receive the
// control surface as the Control interface so that middleware — such as
// resilient.Wrap's retrying, circuit-breaking layer — can interpose on
// every action without the policy knowing.
type Scheduler interface {
	// Name labels the policy in experiment output.
	Name() string
	// Deploy performs initial alternate selection and resource allocation
	// using estimated rates and rated VM performance.
	Deploy(v *View, act Control) error
	// Adapt reacts to the monitored state. It is first invoked after one
	// full interval has executed.
	Adapt(v *View, act Control) error
}
