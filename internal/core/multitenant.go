package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/sim"
)

// Arbiter is the fairness policy that governs scale-up contention on a
// shared fleet. While free quota is plentiful every tenant's policy acts
// independently; once the fleet runs scarce the arbiter decides who may
// still acquire VMs, enforcing per-tenant Ω floors first and priority
// second. Every scarcity-path ruling — grant and deny alike — is emitted as
// a "fair-share" obs.Decision so `dftrace explain` can reconstruct why a
// tenant was throttled.
type Arbiter struct {
	// ScarceFrac is the free-quota fraction at or below which the fleet
	// counts as scarce: free slots (MaxVMs − active − pending) ≤
	// ScarceFrac·MaxVMs triggers arbitration. Default 0.125.
	ScarceFrac float64
}

// DeniedError is returned from AcquireVM when the arbiter rules against the
// requesting tenant. The heuristic's addCore treats any acquisition error as
// graceful degradation, so a denial simply defers the tenant's growth to a
// later interval.
type DeniedError struct {
	Tenant string
	Reason string
}

func (e *DeniedError) Error() string {
	return fmt.Sprintf("core: acquisition denied to tenant %q: %s", e.Tenant, e.Reason)
}

// arbitrate rules on tenant ten's request for one more VM. It returns nil
// on grant and a *DeniedError on deny, emitting provenance for every ruling
// taken on the scarcity path.
func (a Arbiter) arbitrate(v *sim.View, ten int, sink sim.DecisionSink) error {
	maxVMs := v.MaxVMs()
	active, pending := v.FleetCounts()
	free := maxVMs - active - pending
	if float64(free) > a.ScarceFrac*float64(maxVMs) {
		return nil // abundance: no arbitration, no provenance noise
	}
	n := v.TenantCount()
	req := v.TenantInfo(ten)
	starving := make([]bool, n)
	for i := 0; i < n; i++ {
		starving[i] = v.TenantMeanOmega(i) < v.TenantInfo(i).OmegaFloor
	}
	anyOtherStarving := false
	blocker := -1 // starving tenant strictly outranking the requester
	for i := 0; i < n; i++ {
		if i == ten || !starving[i] {
			continue
		}
		anyOtherStarving = true
		t := v.TenantInfo(i)
		if t.Priority > req.Priority && (blocker < 0 || t.Priority > v.TenantInfo(blocker).Priority) {
			blocker = i
		}
	}

	grant := true
	var reason string
	switch {
	case !starving[ten] && anyOtherStarving:
		grant = false
		reason = "fleet is scarce and another tenant is below its omega floor"
	case starving[ten] && blocker >= 0:
		grant = false
		reason = fmt.Sprintf("starving tenant %q holds strictly higher priority", v.TenantInfo(blocker).Name)
	case starving[ten]:
		reason = "requester is below its omega floor; scarce capacity goes to the starving"
	default:
		reason = "no tenant is below its floor; scarce capacity granted first-come"
	}

	if sink != nil {
		dec := obs.Decision{
			Kind:   "fair-share",
			Tenant: req.Name,
			Reason: reason,
			Inputs: map[string]float64{
				"meanOmega": v.TenantMeanOmega(ten),
				"floor":     req.OmegaFloor,
				"priority":  float64(req.Priority),
				"freeSlots": float64(free),
				"maxVMs":    float64(maxVMs),
			},
		}
		if grant {
			dec.Chosen = fmt.Sprintf("grant acquisition to %q", req.Name)
		} else {
			dec.Chosen = fmt.Sprintf("deny acquisition to %q", req.Name)
		}
		for i := 0; i < n; i++ {
			t := v.TenantInfo(i)
			opt := obs.DecisionOption{
				Name: t.Name,
				// Score is the floor margin: negative means starving.
				Score: v.TenantMeanOmega(i) - t.OmegaFloor,
			}
			switch {
			case i == ten && !grant:
				opt.Rejected = reason
			case i == ten:
				// the granted requester
			case i == blocker:
				opt.Rejected = "" // the implied winner of the scarce slot
			case starving[i]:
				opt.Rejected = "starving but not outranking the requester"
			default:
				opt.Rejected = "above its omega floor"
			}
			dec.Options = append(dec.Options, opt)
		}
		sink.Decide(dec)
	}
	if !grant {
		return &DeniedError{Tenant: req.Name, Reason: reason}
	}
	return nil
}

// MultiTenant runs one policy per tenant over the shared fleet, arbitrating
// scale-up contention through an Arbiter. Each inner policy sees only its
// tenant's scoped View and a translated Control, so an unmodified Heuristic
// works per-tenant without knowing the composite graph exists. It implements
// sim.Scheduler and sim.StatefulScheduler.
type MultiTenant struct {
	inner []sim.Scheduler
	arb   Arbiter
}

// NewMultiTenant builds the multi-tenant policy: inner[i] drives tenant i.
func NewMultiTenant(inner []sim.Scheduler, arb Arbiter) (*MultiTenant, error) {
	if len(inner) == 0 {
		return nil, fmt.Errorf("core: multi-tenant policy needs at least one tenant")
	}
	for i, s := range inner {
		if s == nil {
			return nil, fmt.Errorf("core: tenant %d policy is nil", i)
		}
	}
	if arb.ScarceFrac == 0 {
		arb.ScarceFrac = 0.125
	}
	if arb.ScarceFrac < 0 || arb.ScarceFrac >= 1 {
		return nil, fmt.Errorf("core: scarce fraction %v outside (0,1)", arb.ScarceFrac)
	}
	return &MultiTenant{inner: inner, arb: arb}, nil
}

// Name implements sim.Scheduler.
func (m *MultiTenant) Name() string { return fmt.Sprintf("multi-tenant[%d]", len(m.inner)) }

// order ranks tenants for a scheduling pass: starving tenants first (when
// ranking by starvation), then priority descending, then index for
// determinism.
func (m *MultiTenant) order(v *sim.View, starvingFirst bool) []int {
	idx := make([]int, len(m.inner))
	starv := make([]bool, len(m.inner))
	for i := range idx {
		idx[i] = i
		if starvingFirst {
			starv[i] = v.TenantMeanOmega(i) < v.TenantInfo(i).OmegaFloor
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if starv[i] != starv[j] {
			return starv[i]
		}
		pi, pj := v.TenantInfo(i).Priority, v.TenantInfo(j).Priority
		if pi != pj {
			return pi > pj
		}
		return i < j
	})
	return idx
}

// Deploy implements sim.Scheduler: each tenant's policy deploys its own
// dataflow, higher-priority tenants first so they claim fleet quota before
// contention can arise.
func (m *MultiTenant) Deploy(v *sim.View, act sim.Control) error {
	if v.TenantCount() != len(m.inner) {
		return fmt.Errorf("core: multi-tenant policy drives %d tenants, run has %d", len(m.inner), v.TenantCount())
	}
	for _, i := range m.order(v, false) {
		if err := m.inner[i].Deploy(v.Tenant(i), m.control(v, act, i)); err != nil {
			return fmt.Errorf("core: tenant %q deploy: %w", v.TenantInfo(i).Name, err)
		}
	}
	return nil
}

// Adapt implements sim.Scheduler: starving tenants adapt first (they get
// first call on whatever scarce quota the arbiter will still grant), then
// priority order.
func (m *MultiTenant) Adapt(v *sim.View, act sim.Control) error {
	for _, i := range m.order(v, true) {
		if err := m.inner[i].Adapt(v.Tenant(i), m.control(v, act, i)); err != nil {
			return fmt.Errorf("core: tenant %q adapt: %w", v.TenantInfo(i).Name, err)
		}
	}
	return nil
}

// control wraps the engine's control surface for one tenant: PE and choice
// indices translate from tenant-local to composite numbering, VM
// acquisition passes through the arbiter, and forwarded decisions are
// stamped with the tenant's name.
func (m *MultiTenant) control(v *sim.View, act sim.Control, i int) *tenantControl {
	return &tenantControl{act: act, v: v, m: m, ten: i, t: v.TenantInfo(i)}
}

type tenantControl struct {
	act sim.Control
	v   *sim.View
	m   *MultiTenant
	ten int
	t   sim.Tenant
}

var (
	_ sim.Control      = (*tenantControl)(nil)
	_ sim.DecisionSink = (*tenantControl)(nil)
)

func (c *tenantControl) SelectAlternate(pe, alt int) error {
	return c.act.SelectAlternate(pe+c.t.LoPE, alt)
}

func (c *tenantControl) SelectRoute(group, target int) error {
	return c.act.SelectRoute(group+c.t.LoChoice, target)
}

// AcquireVM consults the arbiter before touching the shared fleet. A denial
// surfaces as an error, which the heuristic's addCore treats as graceful
// degradation (retry next interval).
func (c *tenantControl) AcquireVM(className string) (int, error) {
	if err := c.m.arb.arbitrate(c.v, c.ten, decisionSink(c.act)); err != nil {
		return 0, err
	}
	return c.act.AcquireVM(className)
}

func (c *tenantControl) ReleaseVM(vmID int) error { return c.act.ReleaseVM(vmID) }

func (c *tenantControl) AssignCores(pe, vmID, n int) error {
	return c.act.AssignCores(pe+c.t.LoPE, vmID, n)
}

func (c *tenantControl) UnassignCores(pe, vmID, n int) error {
	return c.act.UnassignCores(pe+c.t.LoPE, vmID, n)
}

func (c *tenantControl) MovePE(pe, fromVM, toVM, n int) error {
	return c.act.MovePE(pe+c.t.LoPE, fromVM, toVM, n)
}

func (c *tenantControl) Menu() *cloud.Menu { return c.act.Menu() }

func (c *tenantControl) Log(action, detail string) { c.act.Log(action, detail) }

// Decide forwards the inner policy's provenance, translating the decision's
// PE to composite numbering (only the kinds that carry one) and stamping the
// tenant name so `dftrace explain` attributes it.
func (c *tenantControl) Decide(d obs.Decision) {
	sink := decisionSink(c.act)
	if sink == nil {
		return
	}
	switch d.Kind {
	case "alternate", "scale-up", "scale-down":
		if d.PE >= 0 {
			d.PE += c.t.LoPE
		}
	}
	if d.Tenant == "" {
		d.Tenant = c.t.Name
	}
	sink.Decide(d)
}

func (c *tenantControl) DecisionsObserved() bool { return decisionSink(c.act) != nil }

var _ sim.StatefulScheduler = (*MultiTenant)(nil)

// CheckpointState implements sim.StatefulScheduler: a JSON array of the
// inner policies' blobs, in tenant order. A stateless inner policy
// serializes as null.
func (m *MultiTenant) CheckpointState() ([]byte, error) {
	blobs := make([]json.RawMessage, len(m.inner))
	for i, s := range m.inner {
		ss, ok := s.(sim.StatefulScheduler)
		if !ok {
			blobs[i] = json.RawMessage("null")
			continue
		}
		b, err := ss.CheckpointState()
		if err != nil {
			return nil, fmt.Errorf("core: tenant %d checkpoint: %w", i, err)
		}
		blobs[i] = b
	}
	return json.Marshal(blobs)
}

// RestoreState implements sim.StatefulScheduler.
func (m *MultiTenant) RestoreState(blob []byte) error {
	var blobs []json.RawMessage
	if err := json.Unmarshal(blob, &blobs); err != nil {
		return fmt.Errorf("core: restore multi-tenant state: %w", err)
	}
	if len(blobs) != len(m.inner) {
		return fmt.Errorf("core: snapshot carries %d tenant policies, config has %d", len(blobs), len(m.inner))
	}
	for i, b := range blobs {
		if string(b) == "null" {
			continue
		}
		ss, ok := m.inner[i].(sim.StatefulScheduler)
		if !ok {
			return fmt.Errorf("core: tenant %d policy %q cannot restore state", i, m.inner[i].Name())
		}
		if err := ss.RestoreState(b); err != nil {
			return fmt.Errorf("core: tenant %d restore: %w", i, err)
		}
	}
	return nil
}
