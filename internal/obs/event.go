// Package obs is the unified observability layer: structured event tracing
// (typed, sim-timestamped events streamed as NDJSON), a zero-dependency
// metrics registry with Prometheus text-format exposition, and trace
// inspection (timelines, alternate occupancy, run diffs). Every other layer
// plugs into it — sim.Engine emits step spans and control-action events,
// internal/resilient's middleware decisions arrive through the engine's
// audit path, internal/sweep emits job spans and worker-pool metrics, and
// cmd/dfserve mounts the exposition handler at /metrics. The package
// depends only on the standard library, and every hook is nil-safe: a nil
// *Tracer or nil gauge set adds zero allocations to the hot path, and the
// engine builds an event that formats a field only for an attached tracer.
// An attached tracer encodes each event by appending into a reused buffer
// (encode.go), the bytes json.Encoder wrote, with no allocation per event.
package obs

import "fmt"

// SchemaVersion names the event schema. Every emitted event carries it in
// the "v" field; readers reject streams written by an incompatible schema.
// Bump it whenever an event field changes meaning.
const SchemaVersion = "obs/v1"

// Span phases. Point events leave Phase empty; "init" marks state recorded
// at run start (e.g. the initial alternate selection) rather than a
// decision taken during the run.
const (
	PhaseStart = "start"
	PhaseEnd   = "end"
	PhaseInit  = "init"
)

// Event types emitted by the simulator and its middleware. Scheduler
// actions reuse the audit-log action names so the two views of one run
// stay correlatable.
const (
	// Spans.
	EventRun      = "run"       // one simulation run (start/end)
	EventStep     = "step"      // one sim interval; end carries Omega in Value
	EventSweepJob = "sweep-job" // one sweep job (start/end)

	// Point events: scheduler and control-plane actions.
	EventSelectAlternate = "select-alternate"
	EventSelectRoute     = "select-route"
	EventAcquireVM       = "acquire-vm"
	EventPendingVM       = "pending-vm"
	EventVMReady         = "vm-ready"
	EventReleaseVM       = "release-vm"
	EventAssignCores     = "assign-cores"
	EventUnassignCores   = "unassign-cores"
	EventCrash           = "crash"
	EventPreempt         = "preempt"
	EventAcquireFailed   = "acquire-failed"

	// Point events: resilience middleware decisions.
	EventBreakerOpen     = "breaker-open"
	EventFallbackAcquire = "fallback-acquire"
	EventDegrade         = "degrade"

	// Point events: QoS and correctness.
	EventOmegaViolation     = "omega-violation"
	EventInvariantViolation = "invariant-violation"

	// Point events: distributed sweep fabric (coordinator side). Detail
	// carries "job -> worker" coordinates; N is the lease attempt or
	// failure count at the emitting site.
	EventWorkerJoin  = "worker-join"  // worker registered with the coordinator
	EventLease       = "lease"        // job leased to a worker
	EventHeartbeat   = "heartbeat"    // worker heartbeat renewed its leases
	EventLeaseExpire = "lease-expire" // lease TTL elapsed without renewal
	EventRequeue     = "requeue"      // expired job requeued with backoff
	EventQuarantine  = "quarantine"   // job retired as poison after repeated lease failures
	EventResultDup   = "result-dup"   // duplicate result delivery ignored
	EventResultAck   = "result-ack"   // result accepted and journaled (closes a job span)

	// Point event: structured elasticity-decision provenance. The Decision
	// payload carries the inputs, candidates, and rejected alternatives.
	EventDecision = "decision"
)

// Decision is the structured provenance attached to an EventDecision event:
// everything the scheduler looked at when it made one elasticity decision.
// Inputs is marshaled with sorted keys (encoding/json map behavior), so a
// decision renders byte-deterministically under a seed.
type Decision struct {
	// Kind classifies the decision: "scale-up", "scale-down", "release",
	// "alternate", "fallback", ...
	Kind string `json:"kind"`
	// PE is the processing element the decision concerns (-1 when none).
	PE int `json:"pe,omitempty"`
	// Tenant names the dataflow the decision concerns; empty outside
	// multi-tenant runs, so single-tenant streams keep their byte encoding.
	Tenant string `json:"tenant,omitempty"`
	// Chosen names the action taken ("acquire m1.large", "unassign-core
	// vm-3", ...); empty when the decision concluded with no action.
	Chosen string `json:"chosen,omitempty"`
	// Reason explains the outcome in one clause.
	Reason string `json:"reason,omitempty"`
	// Inputs are the monitored quantities the decision was computed from
	// (omega, gamma, target, required/effective ECU, ...).
	Inputs map[string]float64 `json:"inputs,omitempty"`
	// Options are the candidates considered, with scores and — for the ones
	// not taken — the rejection reason.
	Options []DecisionOption `json:"options,omitempty"`
	// Notes carries middleware annotations (e.g. open circuit breakers).
	Notes []string `json:"notes,omitempty"`
}

// DecisionOption is one candidate a decision weighed.
type DecisionOption struct {
	// Name identifies the candidate (a VM class, a core slot, an alternate).
	Name string `json:"name"`
	// Score is the candidate's rank value at the decision site.
	Score float64 `json:"score,omitempty"`
	// Rejected explains why the candidate was not chosen; empty for the
	// chosen one.
	Rejected string `json:"rejected,omitempty"`
}

// String renders the decision as one deterministic clause.
func (d Decision) String() string {
	s := d.Kind
	if d.Tenant != "" {
		s += "@" + d.Tenant
	}
	if d.Chosen != "" {
		s += " -> " + d.Chosen
	}
	if d.Reason != "" {
		s += ": " + d.Reason
	}
	if n := len(d.Options); n > 0 {
		s += fmt.Sprintf(" [%d options]", n)
	}
	return s
}

// Event is one structured trace record. Sec is simulation time (seconds),
// never wall-clock, so a run's event stream is byte-deterministic under a
// seed. Integer fields use -1-is-never-valid conventions from the
// simulator (PE and VM ids are >= 0), with zero values omitted from the
// JSON encoding to keep streams compact.
type Event struct {
	// V is the schema version (SchemaVersion); Emit fills it.
	V string `json:"v"`
	// Sec is the simulation time the event took effect.
	Sec int64 `json:"sec"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Phase is empty for point events, PhaseStart/PhaseEnd for spans,
	// PhaseInit for run-start state snapshots.
	Phase string `json:"phase,omitempty"`
	// PE is the processing-element index the event concerns.
	PE int `json:"pe,omitempty"`
	// VM is the VM id the event concerns.
	VM int `json:"vm,omitempty"`
	// N is a small integer payload (alternate index, core count, boot
	// seconds, job index — see the emitting site).
	N int `json:"n,omitempty"`
	// Lost counts messages destroyed by this event (crash/preempt).
	Lost float64 `json:"lost,omitempty"`
	// Value is a float payload (Omega for step ends and violations).
	Value float64 `json:"value,omitempty"`
	// Detail is free-form context (class names, alternate names, job ids).
	Detail string `json:"detail,omitempty"`
	// Trace identifies the campaign this event belongs to (fabric runs);
	// Span identifies one job attempt within it, and Worker the worker that
	// emitted the event. All empty outside the fabric, so single-run streams
	// are byte-identical to schema obs/v1 before these fields existed.
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Tenant names the dataflow the event concerns in multi-tenant runs;
	// empty otherwise, so single-tenant streams keep their byte encoding.
	Tenant string `json:"tenant,omitempty"`
	// Decision is the structured provenance payload of EventDecision events.
	Decision *Decision `json:"decision,omitempty"`
}

// String renders the event as one deterministic log line.
func (e Event) String() string {
	s := fmt.Sprintf("t=%ds %s", e.Sec, e.Type)
	if e.Phase != "" {
		s += ":" + e.Phase
	}
	if e.PE != 0 || e.Type == EventSelectAlternate || e.Type == EventAssignCores || e.Type == EventUnassignCores {
		s += fmt.Sprintf(" pe=%d", e.PE)
	}
	if e.VM != 0 || e.Type == EventAcquireVM || e.Type == EventReleaseVM || e.Type == EventVMReady ||
		e.Type == EventPendingVM || e.Type == EventCrash || e.Type == EventPreempt ||
		e.Type == EventAssignCores || e.Type == EventUnassignCores {
		s += fmt.Sprintf(" vm=%d", e.VM)
	}
	if e.N != 0 {
		s += fmt.Sprintf(" n=%d", e.N)
	}
	if e.Lost > 0 {
		s += fmt.Sprintf(" lost=%.0f", e.Lost)
	}
	if e.Value != 0 {
		s += fmt.Sprintf(" value=%.4f", e.Value)
	}
	if e.Tenant != "" {
		s += " tenant=" + e.Tenant
	}
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	if e.Decision != nil {
		s += " " + e.Decision.String()
	}
	if e.Span != "" || e.Worker != "" {
		s += " ["
		s += e.Span
		if e.Worker != "" {
			s += "@" + e.Worker
		}
		s += "]"
	}
	return s
}
