// Package resilient hardens a scheduling policy against an unreliable cloud
// control plane. The paper's heuristics (§5) assume every acquisition request
// is honored instantly; real IaaS APIs return transient "insufficient
// capacity" errors, take minutes to boot VMs, and degrade under load. This
// package wraps a sim.Scheduler so that every control action flows through a
// middleware layer adding:
//
//   - bounded in-call retries of failed acquisitions (simulation time does
//     not advance during a scheduler callback, so retries are immediate; the
//     backoff between rounds materializes as breaker cooldown),
//   - a per-class circuit breaker: after N consecutive capacity errors the
//     class is shunned for a cooldown that doubles on every consecutive trip
//     (capped, with deterministic jitter so runs stay reproducible),
//   - class fallback: while a class's breaker is open — or once retries are
//     exhausted — the acquisition falls through to the next-cheapest class of
//     the same market (on-demand or spot),
//   - a graceful-degradation hook: while capacity is pending or broken and
//     observed throughput is below a floor, PEs are switched to their
//     cheapest alternates so the surviving cores stretch further.
//
// The wrapped policy notices none of this: it sees a sim.Control that mostly
// succeeds. Every middleware decision is written to the engine's audit log
// (breaker-open, fallback-acquire, degrade) so decision traces stay complete.
package resilient

import (
	"fmt"
	"sort"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/sim"
)

// Config tunes the middleware. The zero value enables retries, breaking and
// fallback with the defaults below; the degradation hook stays off until
// DegradeOmega is set.
type Config struct {
	// MaxRetries is how many extra in-call attempts follow a failed
	// acquisition before giving up on the class (default 3).
	MaxRetries int
	// BreakerThreshold is the number of consecutive capacity errors for one
	// class that opens its circuit breaker (default 3).
	BreakerThreshold int
	// CooldownSec is the base breaker cooldown in simulated seconds (default
	// 300). Each consecutive trip doubles it, up to MaxCooldownSec.
	CooldownSec int64
	// MaxCooldownSec caps the exponential cooldown (default 3600).
	MaxCooldownSec int64
	// Seed decorrelates the deterministic cooldown jitter between runs.
	Seed int64
	// NoFallback disables trying other classes; acquisitions then fail fast
	// whenever the requested class is broken or exhausted its retries.
	NoFallback bool
	// DegradeOmega, when positive, arms the degradation hook: while any VM is
	// still provisioning or any breaker is open AND the last observed Omega
	// is below this floor, every PE is switched to its cheapest alternate.
	DegradeOmega float64
}

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = 300
	}
	if c.MaxCooldownSec <= 0 {
		c.MaxCooldownSec = 3600
	}
	if c.MaxCooldownSec < c.CooldownSec {
		c.MaxCooldownSec = c.CooldownSec
	}
	return c
}

// breaker is the circuit state for one VM class.
type breaker struct {
	consecFails int   // capacity errors since the last success
	trips       int   // consecutive opens (resets on success)
	openUntil   int64 // sim time the circuit closes again
}

// Scheduler wraps an inner policy with the resilience middleware. It
// satisfies sim.Scheduler itself, so engines run it like any other policy.
type Scheduler struct {
	inner sim.Scheduler
	cfg   Config

	breakers map[string]*breaker

	retries   int
	fallbacks int
	trips     int
	degrades  int
}

var _ sim.Scheduler = (*Scheduler)(nil)

// Wrap builds the middleware around an inner policy.
func Wrap(inner sim.Scheduler, cfg Config) *Scheduler {
	return &Scheduler{inner: inner, cfg: cfg.withDefaults(), breakers: map[string]*breaker{}}
}

// Name labels the wrapped policy in experiment output.
func (s *Scheduler) Name() string {
	if n, ok := s.inner.(interface{ Name() string }); ok {
		return "resilient+" + n.Name()
	}
	return "resilient"
}

// Retries reports in-call acquisition retries performed so far.
func (s *Scheduler) Retries() int { return s.retries }

// Fallbacks reports acquisitions satisfied by a substitute class.
func (s *Scheduler) Fallbacks() int { return s.fallbacks }

// BreakerTrips reports how many times any class breaker opened.
func (s *Scheduler) BreakerTrips() int { return s.trips }

// Degrades reports how many rounds the degradation hook fired.
func (s *Scheduler) Degrades() int { return s.degrades }

// Deploy implements sim.Scheduler: the inner policy deploys through the
// resilient control surface.
func (s *Scheduler) Deploy(v *sim.View, act sim.Control) error {
	return s.inner.Deploy(v, &Actions{s: s, v: v, inner: act})
}

// Adapt implements sim.Scheduler: the inner policy adapts through the
// resilient control surface, then the degradation hook runs on the outcome.
func (s *Scheduler) Adapt(v *sim.View, act sim.Control) error {
	ra := &Actions{s: s, v: v, inner: act}
	if err := s.inner.Adapt(v, ra); err != nil {
		return err
	}
	return s.maybeDegrade(v, ra)
}

// anyBreakerOpen reports whether some class is currently shunned.
func (s *Scheduler) anyBreakerOpen(now int64) bool {
	for _, b := range s.breakers {
		if now < b.openUntil {
			return true
		}
	}
	return false
}

// maybeDegrade switches every PE to its cheapest alternate while capacity is
// impaired (VMs pending or a breaker open) and throughput sits below the
// configured floor. The inner policy's own alternate stage restores richer
// alternates once capacity recovers.
func (s *Scheduler) maybeDegrade(v *sim.View, act sim.Control) error {
	if s.cfg.DegradeOmega <= 0 {
		return nil
	}
	now := v.Now()
	_, pending := v.FleetCounts()
	impaired := pending > 0 || s.anyBreakerOpen(now)
	if !impaired || v.Omega() >= s.cfg.DegradeOmega {
		return nil
	}
	g := v.Graph()
	sel := v.Selection()
	changed := false
	for pe := 0; pe < g.N(); pe++ {
		alts := g.PEs[pe].Alternates
		if len(alts) < 2 {
			continue
		}
		cheapest := 0
		for i := range alts {
			if alts[i].Cost < alts[cheapest].Cost {
				cheapest = i
			}
		}
		if sel[pe] != cheapest {
			if err := act.SelectAlternate(pe, cheapest); err != nil {
				return err
			}
			changed = true
		}
	}
	if changed {
		s.degrades++
		act.Log("degrade", fmt.Sprintf("cheapest alternates while capacity impaired (omega %.2f)", v.Omega()))
	}
	return nil
}

// breakerFor returns (creating if needed) the class's circuit state.
func (s *Scheduler) breakerFor(class string) *breaker {
	b, ok := s.breakers[class]
	if !ok {
		b = &breaker{}
		s.breakers[class] = b
	}
	return b
}

// cooldownSec computes the breaker-open duration for a class's n-th
// consecutive trip: base * 2^n capped at the maximum, plus a deterministic
// jitter in [0, base/4) derived from the seed, the class name and the trip
// count — no two classes thunder back in the same second.
func (s *Scheduler) cooldownSec(class string, trip int) int64 {
	cool := s.cfg.CooldownSec
	for i := 0; i < trip && cool < s.cfg.MaxCooldownSec; i++ {
		cool *= 2
	}
	if cool > s.cfg.MaxCooldownSec {
		cool = s.cfg.MaxCooldownSec
	}
	if span := s.cfg.CooldownSec / 4; span > 0 {
		h := uint64(s.cfg.Seed) ^ 0x9e3779b97f4a7c15
		for _, r := range class {
			h = (h ^ uint64(r)) * 0x100000001b3
		}
		h ^= uint64(trip) * 0xbf58476d1ce4e5b9
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		cool += int64(h % uint64(span))
	}
	return cool
}

// Actions is the resilient control surface handed to the inner policy for
// one callback. Everything except AcquireVM passes straight through.
type Actions struct {
	s     *Scheduler
	v     *sim.View
	inner sim.Control
}

var _ sim.Control = (*Actions)(nil)

// SelectAlternate passes through.
func (a *Actions) SelectAlternate(pe, alt int) error { return a.inner.SelectAlternate(pe, alt) }

// SelectRoute passes through.
func (a *Actions) SelectRoute(group, target int) error { return a.inner.SelectRoute(group, target) }

// ReleaseVM passes through.
func (a *Actions) ReleaseVM(vmID int) error { return a.inner.ReleaseVM(vmID) }

// AssignCores passes through.
func (a *Actions) AssignCores(pe, vmID, n int) error { return a.inner.AssignCores(pe, vmID, n) }

// UnassignCores passes through.
func (a *Actions) UnassignCores(pe, vmID, n int) error { return a.inner.UnassignCores(pe, vmID, n) }

// MovePE passes through.
func (a *Actions) MovePE(pe, fromVM, toVM, n int) error { return a.inner.MovePE(pe, fromVM, toVM, n) }

// Menu passes through.
func (a *Actions) Menu() *cloud.Menu { return a.inner.Menu() }

// Log passes through.
func (a *Actions) Log(action, detail string) { a.inner.Log(action, detail) }

var _ sim.DecisionSink = (*Actions)(nil)

// Decide forwards decision provenance to the inner sink, annotating it with
// the middleware's view of the world: every currently open circuit breaker
// lands in the decision's notes (sorted by class, so the record stays
// deterministic). No-op when the inner surface has no sink.
func (a *Actions) Decide(d obs.Decision) {
	ds, ok := a.inner.(sim.DecisionSink)
	if !ok {
		return
	}
	now := a.v.Now()
	var open []string
	for class, b := range a.s.breakers {
		if now < b.openUntil {
			open = append(open, fmt.Sprintf("breaker open: %s until t=%ds", class, b.openUntil))
		}
	}
	sort.Strings(open)
	d.Notes = append(d.Notes, open...)
	ds.Decide(d)
}

// DecisionsObserved forwards to the inner sink.
func (a *Actions) DecisionsObserved() bool {
	ds, ok := a.inner.(sim.DecisionSink)
	return ok && ds.DecisionsObserved()
}

// AcquireVM acquires a VM of the named class, riding out transient capacity
// errors: bounded retries against the requested class, then — unless
// fallback is disabled — the same treatment for each substitute class in
// fallback order. Classes whose breaker is open are skipped without a single
// request. Returns the last CapacityError when every avenue fails.
func (a *Actions) AcquireVM(className string) (int, error) {
	requested, ok := a.inner.Menu().ByName(className)
	if !ok {
		// Unknown class: let the engine produce its canonical error.
		return a.inner.AcquireVM(className)
	}
	now := a.v.Now()
	var lastErr error
	// Assemble fallback provenance only when somebody observes it.
	var dec *obs.Decision
	if ds, ok := a.inner.(sim.DecisionSink); ok && ds.DecisionsObserved() {
		dec = &obs.Decision{Kind: "fallback", PE: -1,
			Inputs: map[string]float64{"requestedPricePerHour": requested.PricePerHour}}
	}
	for _, class := range a.s.ladder(a.inner.Menu(), requested) {
		br := a.s.breakerFor(class.Name)
		if now < br.openUntil {
			if dec != nil {
				dec.Options = append(dec.Options, obs.DecisionOption{
					Name: class.Name, Score: class.PricePerHour,
					Rejected: fmt.Sprintf("breaker open until t=%ds", br.openUntil)})
			}
			continue // circuit open: shun the class until cooldown expires
		}
		id, err := a.acquireWithRetry(class.Name, now)
		if err == nil {
			if class.Name != className {
				a.s.fallbacks++
				a.inner.Log("fallback-acquire", fmt.Sprintf("%s in place of %s", class.Name, className))
				if dec != nil {
					dec.Options = append(dec.Options, obs.DecisionOption{
						Name: class.Name, Score: class.PricePerHour})
					dec.Chosen = fmt.Sprintf("acquire %s in place of %s", class.Name, className)
					dec.Reason = "requested class unavailable; next rung of the same-market price ladder"
					a.Decide(*dec)
				}
			}
			return id, nil
		}
		if !sim.IsCapacityError(err) {
			return 0, err // fleet cap etc.: not retryable, not our business
		}
		if dec != nil {
			dec.Options = append(dec.Options, obs.DecisionOption{
				Name: class.Name, Score: class.PricePerHour,
				Rejected: "capacity error after retries"})
		}
		lastErr = err
		if a.s.cfg.NoFallback {
			break
		}
	}
	if lastErr == nil {
		// Every candidate was behind an open breaker: fail fast without
		// issuing a single doomed request.
		lastErr = &sim.CapacityError{Class: className, Sec: now}
	}
	if dec != nil {
		dec.Reason = fmt.Sprintf("every rung of the ladder failed or was shunned acquiring %s", className)
		a.Decide(*dec)
	}
	return 0, lastErr
}

// acquireWithRetry tries one class up to 1+MaxRetries times, maintaining its
// breaker: a success closes the circuit, the threshold-th consecutive
// capacity error opens it with exponential cooldown.
func (a *Actions) acquireWithRetry(class string, now int64) (int, error) {
	br := a.s.breakerFor(class)
	var lastErr error
	for attempt := 0; attempt <= a.s.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			a.s.retries++
		}
		id, err := a.inner.AcquireVM(class)
		if err == nil {
			br.consecFails, br.trips = 0, 0
			return id, nil
		}
		if !sim.IsCapacityError(err) {
			return 0, err
		}
		lastErr = err
		br.consecFails++
		if br.consecFails >= a.s.cfg.BreakerThreshold {
			cool := a.s.cooldownSec(class, br.trips)
			br.openUntil = now + cool
			br.trips++
			br.consecFails = 0
			a.s.trips++
			a.inner.Log("breaker-open", fmt.Sprintf("%s for %ds", class, cool))
			break
		}
	}
	return 0, lastErr
}

// ladder orders the acquisition candidates: the requested class first, then
// — same market only, so a constraint-critical on-demand request never lands
// on reclaimable spot capacity — the classes cheaper than it by descending
// price (next-cheapest first), then the pricier ones by ascending price.
func (s *Scheduler) ladder(menu *cloud.Menu, requested *cloud.Class) []*cloud.Class {
	out := []*cloud.Class{requested}
	if s.cfg.NoFallback {
		return out
	}
	var cheaper, pricier []*cloud.Class
	for _, c := range menu.Classes() {
		if c.Name == requested.Name || c.Preemptible != requested.Preemptible {
			continue
		}
		if c.PricePerHour <= requested.PricePerHour {
			cheaper = append(cheaper, c)
		} else {
			pricier = append(pricier, c)
		}
	}
	sort.SliceStable(cheaper, func(i, j int) bool {
		return cheaper[i].PricePerHour > cheaper[j].PricePerHour
	})
	sort.SliceStable(pricier, func(i, j int) bool {
		return pricier[i].PricePerHour < pricier[j].PricePerHour
	})
	out = append(out, cheaper...)
	return append(out, pricier...)
}
