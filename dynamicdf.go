// Package dynamicdf is a library for building and executing dynamic
// dataflows — continuous dataflow applications whose processing elements
// (PEs) carry alternate implementations with different value/cost
// trade-offs — on simulated elastic IaaS clouds, together with the
// deployment and runtime-adaptation heuristics of
//
//	A. Kumbhare, Y. Simmhan, V. K. Prasanna.
//	"Exploiting Application Dynamism and Cloud Elasticity for Continuous
//	Dataflows". SC'13. DOI 10.1145/2503210.2503240.
//
// The package re-exports the library's stable surface:
//
//   - dataflow construction (NewGraph, Builder, Alternate, Selection),
//   - the cloud infrastructure model (Class, Menu, AWS2013Classes),
//   - performance-variability traces (Ideal and Replayed providers),
//   - input rate profiles (Constant, Wave, RandomWalk, Spike),
//   - the discrete-interval simulator (Config, Engine, View, Actions),
//   - the paper's policies (Heuristic with local/global strategies,
//     BruteForce) and objective (Objective, PaperSigma),
//   - sweep campaigns (SweepSpec, SweepEngine), the form in which
//     cmd/dfbench runs the paper's evaluation.
//
// Quickstart:
//
//	g := dynamicdf.Fig1Graph()
//	obj, _ := dynamicdf.PaperSigma(g, 5, 10)
//	h, _ := dynamicdf.NewHeuristic(dynamicdf.Options{
//		Strategy: dynamicdf.Global, Dynamic: true, Adaptive: true, Objective: obj,
//	})
//	prof, _ := dynamicdf.NewConstant(5)
//	cfg := dynamicdf.Config{
//		Graph:      g,
//		Menu:       dynamicdf.MustMenu(dynamicdf.AWS2013Classes()),
//		Inputs:     map[int]dynamicdf.Profile{0: prof},
//		HorizonSec: 10 * 3600,
//	}
//	e, _ := dynamicdf.NewEngine(cfg)
//	summary, _ := e.Run(h)
//	fmt.Println(summary, "theta:", obj.Theta(summary.MeanGamma, summary.TotalCostUSD))
package dynamicdf

import (
	"io"

	"dynamicdf/internal/calibration"
	"dynamicdf/internal/cloud"
	"dynamicdf/internal/core"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/resilient"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
	"dynamicdf/internal/sweep"
	"dynamicdf/internal/sweep/fabric"
	"dynamicdf/internal/trace"
	"dynamicdf/internal/workload"
)

// Dataflow model (paper §3).
type (
	// Graph is a dynamic dataflow: a DAG of PEs with alternates.
	Graph = dataflow.Graph
	// PE is a processing element.
	PE = dataflow.PE
	// Alternate is one implementation choice of a PE with value, cost and
	// selectivity.
	Alternate = dataflow.Alternate
	// Edge is a directed dataflow edge between PE indices.
	Edge = dataflow.Edge
	// Builder assembles a Graph by PE name.
	Builder = dataflow.Builder
	// Selection maps each PE to its active alternate.
	Selection = dataflow.Selection
	// InputRates maps input PE indices to external message rates.
	InputRates = dataflow.InputRates
	// ChoiceGroup declares choice semantics on an output port — the basis
	// of dynamic paths (§9 future work).
	ChoiceGroup = dataflow.ChoiceGroup
	// Routing selects the active target of every choice group.
	Routing = dataflow.Routing
)

// NewGraph constructs and validates a dataflow graph.
func NewGraph(pes []*PE, edges []Edge) (*Graph, error) { return dataflow.NewGraph(pes, edges) }

// NewBuilder returns an empty dataflow builder.
func NewBuilder() *Builder { return dataflow.NewBuilder() }

// Alt is shorthand for an Alternate literal.
func Alt(name string, value, cost, selectivity float64) Alternate {
	return dataflow.Alt(name, value, cost, selectivity)
}

// Fig1Graph builds the paper's Fig. 1 abstract dataflow.
func Fig1Graph() *Graph { return dataflow.Fig1Graph() }

// ReadGraphJSON parses and validates a graph from its canonical JSON form
// (Graph also implements json.Marshaler/Unmarshaler and WriteJSON).
func ReadGraphJSON(r io.Reader) (*Graph, error) { return dataflow.ReadJSON(r) }

// EvalGraph builds the §8 evaluation dataflow with alternate ladders.
func EvalGraph() *Graph { return dataflow.EvalGraph() }

// Cloud infrastructure model (paper §4).
type (
	// Class is a VM resource class (cores, rated speed, bandwidth, price).
	Class = cloud.Class
	// Menu is the set of acquirable VM classes.
	Menu = cloud.Menu
	// VM is one acquired instance with hour-boundary billing.
	VM = cloud.VM
	// Fleet tracks all instances and their accumulated cost.
	Fleet = cloud.Fleet
)

// AWS2013Classes returns the 2013 AWS on-demand menu the evaluation uses.
func AWS2013Classes() []*Class { return cloud.AWS2013Classes() }

// WithSpotMarket adds a preemptible twin of every class at the price
// fraction (use with Config.Preemption and Options.UseSpot).
func WithSpotMarket(classes []*Class, priceFraction float64) []*Class {
	return cloud.WithSpotMarket(classes, priceFraction)
}

// NewMenu validates classes into a menu.
func NewMenu(classes []*Class) (*Menu, error) { return cloud.NewMenu(classes) }

// MustMenu is NewMenu that panics on error.
func MustMenu(classes []*Class) *Menu { return cloud.MustMenu(classes) }

// Input rate profiles (paper §8.1).
type (
	// Profile yields an input PE's external message rate over time.
	Profile = rates.Profile
	// Constant is a fixed-rate profile.
	Constant = rates.Constant
	// Wave is the periodic-wave profile.
	Wave = rates.Wave
	// RandomWalk wanders around a mean rate.
	RandomWalk = rates.RandomWalk
	// Spike overlays bursts on a base profile.
	Spike = rates.Spike
)

// NewConstant returns a constant-rate profile.
func NewConstant(r float64) (*Constant, error) { return rates.NewConstant(r) }

// NewWave returns a periodic wave profile.
func NewWave(mean, amplitude float64, periodSec int64) (*Wave, error) {
	return rates.NewWave(mean, amplitude, periodSec)
}

// NewRandomWalk returns a mean-reverting random-walk profile.
func NewRandomWalk(mean, step float64, stepSec, seed int64) (*RandomWalk, error) {
	return rates.NewRandomWalk(mean, step, stepSec, seed)
}

// NewSpike overlays periodic bursts on a base profile.
func NewSpike(base Profile, factor float64, intervalSec, durationSec int64) (*Spike, error) {
	return rates.NewSpike(base, factor, intervalSec, durationSec)
}

// Infrastructure performance variability (paper §2.5, Figs. 2-3).
type (
	// PerfProvider supplies runtime CPU/network behaviour to the simulator.
	// Its methods must be pure functions of (ids, sec): a checkpoint carries
	// no trace values, so the simulator re-reads traces on restore.
	// It may also declare a bandwidth floor, BandwidthFloorMbps() float64,
	// so that the simulator skips the links no sample could cap.
	PerfProvider = trace.Provider
	// IdealCloud is a perfectly stable provider.
	IdealCloud = trace.Ideal
	// ReplayedCloud replays synthetic (or loaded) variability traces.
	ReplayedCloud = trace.Replayed
	// ReplayedConfig parameterizes trace-pool generation.
	ReplayedConfig = trace.ReplayedConfig
	// TraceSeries is a sampled coefficient/measurement series.
	TraceSeries = trace.Series
	// TraceGenConfig parameterizes synthetic trace generation.
	TraceGenConfig = trace.GenConfig
)

// NewIdealCloud returns a provider with rated, stable performance.
func NewIdealCloud() *IdealCloud { return trace.NewIdeal() }

// NewReplayedCloud generates trace pools and returns the replaying provider.
func NewReplayedCloud(cfg ReplayedConfig) (*ReplayedCloud, error) { return trace.NewReplayed(cfg) }

// NewReplayedCloudFromSeries builds a provider replaying loaded (real)
// traces; nil pools fall back to generated defaults.
func NewReplayedCloudFromSeries(cpu, lat, bw []*TraceSeries, seed int64) (*ReplayedCloud, error) {
	return trace.NewReplayedFromSeries(cpu, lat, bw, seed)
}

// LoadTraceDir reads every .csv under dir as one trace series per file.
func LoadTraceDir(dir string) ([]*TraceSeries, error) { return trace.LoadDir(dir) }

// Simulator (paper §8.1's IaaS simulator).
type (
	// Config assembles a simulation scenario.
	Config = sim.Config
	// Engine executes a scenario.
	Engine = sim.Engine
	// View is the monitored state a scheduler observes.
	View = sim.View
	// Actions is the engine's own control surface.
	Actions = sim.Actions
	// Control is the control-surface interface schedulers act through;
	// middleware (see the Resilient* types) wraps one Control in another.
	Control = sim.Control
	// Scheduler drives deployment and adaptation.
	Scheduler = sim.Scheduler
	// AuditEntry is one recorded control action.
	AuditEntry = sim.AuditEntry
	// Summary aggregates a run's per-interval metrics.
	Summary = metrics.Summary
	// MetricPoint is one interval's measurements.
	MetricPoint = metrics.Point
)

// NewEngine validates a scenario and returns its engine.
func NewEngine(cfg Config) (*Engine, error) { return sim.NewEngine(cfg) }

// ErrCanceled is the typed error RunContext wraps when its context is
// canceled mid-horizon (test with errors.Is).
var ErrCanceled = sim.ErrCanceled

// NewView builds a read-only monitoring view over an engine, for inspecting
// state outside a scheduler callback.
func NewView(e *Engine) *View { return sim.NewView(e) }

// Checkpoint / restore: the engine's complete mutable state as a canonical,
// digest-verified document (encoding state/v1; see internal/state and
// DESIGN.md, "Canonical engine state").
type (
	// Snapshot is everything a run needs to continue byte-identically:
	// clock, fleet, placements, queues, monitor states, accumulators,
	// metrics, audit log, and an opaque scheduler blob. Produced by
	// Engine.Checkpoint between intervals; consumed by Restore.
	Snapshot = state.Snapshot
	// StatefulScheduler is a Scheduler whose internal state rides along in
	// snapshots, so a restored run resumes the policy mid-thought rather
	// than amnesiac. Stateless schedulers simply don't implement it.
	StatefulScheduler = sim.StatefulScheduler
)

// SnapshotVersion names the snapshot encoding embedded in (and required
// of) every state document.
const SnapshotVersion = state.Version

// Restore builds a fresh engine that continues a checkpointed run
// bit-identically. The config must agree with the snapshot on the
// deterministic world (graph size, interval, seed); observer wiring may
// differ. One snapshot can seed any number of engines.
func Restore(snap *Snapshot, cfg Config) (*Engine, error) { return sim.Restore(snap, cfg) }

// EncodeSnapshot serializes a snapshot as canonical state/v1 JSON with a
// sha256 integrity digest.
func EncodeSnapshot(s *Snapshot) ([]byte, error) { return state.Encode(s) }

// DecodeSnapshot parses a state/v1 document, rejecting unknown fields,
// version mismatches, and any corruption the digest catches.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return state.Decode(data) }

// Runtime invariant checking (the simulation correctness harness).
type (
	// InvariantChecker asserts conservation-style laws over engine state at
	// the end of every simulated interval (attach via Config.Checker).
	InvariantChecker = invariant.Checker
	// InvariantViolation is the typed error a strict checker aborts a run
	// with: the broken law, the sim-second, and a state snapshot.
	InvariantViolation = invariant.Violation
	// InvariantLaw is one named invariant over an engine-state snapshot.
	InvariantLaw = invariant.Law
	// InvariantState is the plain-data engine snapshot laws assert over.
	InvariantState = invariant.State
)

// NewInvariantChecker returns a lenient checker with the default law set:
// violations are recorded and counted but the run continues.
func NewInvariantChecker() *InvariantChecker { return invariant.New() }

// NewStrictInvariantChecker returns a checker that aborts the run at the
// first violation with a typed *InvariantViolation.
func NewStrictInvariantChecker() *InvariantChecker { return invariant.NewStrict() }

// AsInvariantViolation extracts the typed violation from a run error.
func AsInvariantViolation(err error) (*InvariantViolation, bool) { return invariant.As(err) }

// DefaultInvariantLaws returns a copy of the default law catalog (see
// DESIGN.md, "Invariant catalog").
func DefaultInvariantLaws() []InvariantLaw { return invariant.DefaultLaws() }

// Failure injection (§9 fault-tolerance extension).
type (
	// FailureModel decides when acquired VMs crash.
	FailureModel = sim.FailureModel
	// ExponentialFailures draws VM lifetimes from an exponential
	// distribution (deterministic per VM).
	ExponentialFailures = sim.ExponentialFailures
	// NoFailures disables crashes (the default).
	NoFailures = sim.NoFailures
)

// Control-plane fault injection and the resilience middleware.
type (
	// ControlFaults makes the simulated cloud control plane unreliable:
	// provisioning delays, transient acquisition failures, degraded
	// monitoring (see Config.ControlFaults).
	ControlFaults = sim.ControlFaults
	// ProvisioningFaults delays VM boot.
	ProvisioningFaults = sim.ProvisioningFaults
	// AcquisitionFaults makes AcquireVM fail transiently.
	AcquisitionFaults = sim.AcquisitionFaults
	// MonitoringFaults makes probes stale or noisy.
	MonitoringFaults = sim.MonitoringFaults
	// CapacityError is the transient "insufficient capacity" acquisition
	// error.
	CapacityError = sim.CapacityError
	// ResilientConfig tunes the resilience middleware.
	ResilientConfig = resilient.Config
	// ResilientScheduler wraps a policy with retries, circuit breaking,
	// class fallback and graceful degradation.
	ResilientScheduler = resilient.Scheduler
)

// IsCapacityError reports whether err is (or wraps) a CapacityError — the
// retryable class of acquisition failures.
func IsCapacityError(err error) bool { return sim.IsCapacityError(err) }

// WrapResilient builds the resilience middleware around an inner policy.
func WrapResilient(inner Scheduler, cfg ResilientConfig) *ResilientScheduler {
	return resilient.Wrap(inner, cfg)
}

// Policies and objective (paper §6-§7).
type (
	// Objective is the constrained utility formulation (OmegaHat, Epsilon,
	// Sigma).
	Objective = core.Objective
	// Options configures a Heuristic.
	Options = core.Options
	// Heuristic is the paper's deployment + adaptation policy.
	Heuristic = core.Heuristic
	// BruteForce is the exhaustive static baseline.
	BruteForce = core.BruteForce
	// Strategy selects local or global decision making.
	Strategy = core.Strategy
)

// Strategies.
const (
	// Local uses only per-PE information (Table 1).
	Local = core.Local
	// Global accounts for downstream impact and repacks across classes.
	Global = core.Global
)

// NewHeuristic validates options and returns the policy.
func NewHeuristic(opts Options) (*Heuristic, error) { return core.NewHeuristic(opts) }

// NewBruteForce returns the exhaustive static baseline.
func NewBruteForce(obj Objective, horizonHours float64) (*BruteForce, error) {
	return core.NewBruteForce(obj, horizonHours)
}

// PaperSigma derives the evaluation's objective for a data rate and horizon
// (§8.2's cost calibration: $4/hour at 2 msg/s to $100/hour at 50 msg/s).
func PaperSigma(g *Graph, dataRate, hours float64) (Objective, error) {
	return core.PaperSigma(g, dataRate, hours)
}

// SigmaFromExpectations derives sigma from user-acceptable costs (§6).
func SigmaFromExpectations(g *Graph, costAtMaxUSD, costAtMinUSD float64) (float64, error) {
	return core.SigmaFromExpectations(g, costAtMaxUSD, costAtMinUSD)
}

// Multi-tenant fleets: several dataflows, each with its own graph, rate,
// Ω floor and priority, share one VM fleet; a per-tenant policy stack is
// arbitrated by a fairness layer that defends Ω floors under scarcity.
type (
	// Tenant declares one dataflow's slice of a multi-tenant run: its PE
	// and choice-group ranges in the composite graph, its Ω floor, and its
	// arbitration priority (see Config.Tenants).
	Tenant = sim.Tenant
	// TenantSummary is one tenant's slice of a run Summary.
	TenantSummary = metrics.TenantSummary
	// MultiTenantPolicy runs one inner policy per tenant over the shared
	// fleet, arbitrating scale-up contention.
	MultiTenantPolicy = core.MultiTenant
	// AcquisitionDenied is the typed error a tenant's AcquireVM returns
	// when the arbiter rules against it (test with errors.As).
	AcquisitionDenied = core.DeniedError
	// ScenarioTenantSpec declares one tenant in the scenario schema's
	// tenants block.
	ScenarioTenantSpec = scenario.TenantSpec
)

// NewMultiTenantPolicy builds the multi-tenant policy: inner[i] drives
// tenant i of the run's Config.Tenants. Under scarcity (free quota at or
// below an eighth of MaxVMs) it defends Ω floors first, priority second.
func NewMultiTenantPolicy(inner []Scheduler) (*MultiTenantPolicy, error) {
	return core.NewMultiTenant(inner)
}

// Session-based workload library (internal/workload): open/closed session
// populations with MMPP bursts, diurnal cycles and flash crowds, usable
// anywhere a rate Profile is (and as scenario rate kind "sessions").
type (
	// WorkloadSpec parameterizes a session generator.
	WorkloadSpec = workload.Spec
	// SessionsProfile is the session-population rate profile.
	SessionsProfile = workload.Sessions
	// WorkloadModel selects how sessions enter: OpenSessions arrive from an
	// unbounded population, ClosedSessions cycle a fixed one.
	WorkloadModel = workload.Model
)

// Session-population models.
const (
	OpenSessions   = workload.Open
	ClosedSessions = workload.Closed
)

// NewSessions validates a workload spec and returns its profile.
func NewSessions(spec WorkloadSpec) (*SessionsProfile, error) { return workload.New(spec) }

// FanProfile splits one profile across k input PEs by weight (uniform when
// weights is nil), preserving the total rate.
func FanProfile(p Profile, weights []float64, k int) ([]Profile, error) {
	return workload.Fan(p, weights, k)
}

// Sweep campaigns (parallel, cached, resumable simulation grids; served
// over HTTP by cmd/dfserve and run locally by dfbench -sweep).
type (
	// SweepSpec declares a campaign: a base scenario crossed with parameter
	// axes (RFC 7386 merge patches) and seed replicas.
	SweepSpec = sweep.Spec
	// SweepAxis is one swept dimension.
	SweepAxis = sweep.Axis
	// SweepAxisValue is one labeled point on an axis.
	SweepAxisValue = sweep.AxisValue
	// SweepWarmStart configures prefix sharing: jobs differing only along
	// warm (prefix-neutral) axes fork one checkpointed prefix run.
	SweepWarmStart = sweep.WarmStartSpec
	// SweepJob is one expanded (scenario, seed) cell with its cache key.
	SweepJob = sweep.Job
	// SweepEngine executes expanded jobs on a bounded worker pool.
	SweepEngine = sweep.Engine
	// SweepRunOpts carries one campaign's journal, progress sink and drain
	// signal to SweepEngine.RunCampaign.
	SweepRunOpts = sweep.RunOpts
	// SweepJournal is the append-only completion log enabling crash-safe
	// resume and cross-run caching.
	SweepJournal = sweep.Journal
	// SweepResult is one job's outcome (metrics or error).
	SweepResult = sweep.Result
	// SweepProgress is a point-in-time campaign progress snapshot.
	SweepProgress = sweep.Progress
	// SweepReport is the full campaign outcome with aggregated rows.
	SweepReport = sweep.Report
	// SweepRow aggregates a group's replicas into mean/P50/P95 metrics.
	SweepRow = sweep.AggRow
	// SweepServer hosts campaigns behind the dfserve HTTP API.
	SweepServer = sweep.Server
	// SweepServerConfig tunes a SweepServer.
	SweepServerConfig = sweep.ServerConfig
	// Distribution summarizes replica samples (N, mean, P50, P95).
	Distribution = metrics.Distribution
)

// ErrSweepDrained marks a campaign stopped by a drain request with jobs
// still queued; journaled work is kept and a resume finishes the rest.
var ErrSweepDrained = sweep.ErrDrained

// ParseSweepSpec decodes and validates a sweep spec from JSON.
func ParseSweepSpec(data []byte) (*SweepSpec, error) { return sweep.ParseSpec(data) }

// OpenSweepJournal opens (or creates) a campaign journal and replays the
// completions already on record.
func OpenSweepJournal(path string) (*SweepJournal, error) { return sweep.OpenJournal(path) }

// NewSweepServer builds the HTTP campaign service (see Handler/Submit).
func NewSweepServer(cfg SweepServerConfig) *SweepServer { return sweep.NewServer(cfg) }

// Distributed sweep fabric: a lease-based coordinator that executes
// campaigns on attached worker processes with heartbeat-renewed job
// leases, capped-backoff requeues, poison-job quarantine, warm-start
// prefix affinity, and idempotent result acks — campaign output stays
// byte-identical to a single-pool run regardless of worker crashes or
// duplicate deliveries (see internal/sweep/fabric and dfserve -fabric /
// -worker).
type (
	// FabricConfig tunes the coordinator's lease state machine.
	FabricConfig = fabric.Config
	// FabricHub is the coordinator: it implements the sweep server's
	// CampaignRunner and serves the worker API under /fabric/.
	FabricHub = fabric.Hub
	// FabricWorker leases jobs from a coordinator and executes them with
	// pool-identical semantics.
	FabricWorker = fabric.Worker
	// FabricWorkerConfig tunes one worker.
	FabricWorkerConfig = fabric.WorkerConfig
	// FabricClient is a worker's HTTP view of the coordinator.
	FabricClient = fabric.Client
	// FabricLease is one granted job lease.
	FabricLease = fabric.Lease
	// FabricFaults injects deterministic, seeded fabric failures (worker
	// crashes, hangs, dropped/duplicated deliveries, heartbeat loss) for
	// chaos testing.
	FabricFaults = fabric.Faults
	// FabricMetrics is the coordinator's fabric_* metric family.
	FabricMetrics = obs.FabricMetrics
)

// ErrFabricWorkerCrashed is returned by FabricWorker.Run when an injected
// crash fault killed the worker.
var ErrFabricWorkerCrashed = fabric.ErrCrashed

// NewFabricHub builds a coordinator (wire it as SweepServerConfig.Runner
// and mount Handler at /fabric/).
func NewFabricHub(cfg FabricConfig) *FabricHub { return fabric.NewHub(cfg) }

// NewFabricWorker builds a worker; Run leases and executes jobs until its
// context is cancelled.
func NewFabricWorker(cfg FabricWorkerConfig) *FabricWorker { return fabric.NewWorker(cfg) }

// NewFabricClient returns a client for the coordinator at base.
func NewFabricClient(base string) *FabricClient { return fabric.NewClient(base) }

// NewFabricMetrics registers the fabric_* series on reg.
func NewFabricMetrics(reg *MetricsRegistry) *FabricMetrics { return obs.NewFabricMetrics(reg) }

// Observability: structured event tracing, a Prometheus-style metrics
// registry with text exposition, and trace inspection (see internal/obs,
// cmd/dfsim -trace and cmd/dftrace).
type (
	// TraceEvent is one structured, sim-timestamped trace record
	// (schema obs/v1).
	TraceEvent = obs.Event
	// Tracer streams trace events as NDJSON; attach with
	// Engine.SetTracer. A nil *Tracer is a no-op.
	Tracer = obs.Tracer
	// MetricsRegistry holds counters/gauges/histograms and serves them in
	// Prometheus text exposition format (Handler, WriteText).
	MetricsRegistry = obs.Registry
	// RunGauges is the live per-run gauge set a sim engine updates.
	RunGauges = obs.RunGauges
	// PoolMetrics instruments a sweep worker pool.
	PoolMetrics = obs.PoolMetrics
	// StageProfiler records per-stage wall time and allocation deltas for
	// the engine's step pipeline; attach with Engine.SetProfiler. A nil
	// *StageProfiler is a no-op.
	StageProfiler = obs.StageProfiler
	// Decision is the structured provenance payload of "decision" trace
	// events: inputs, candidates with scores, and rejection reasons.
	Decision = obs.Decision
	// DecisionOption is one candidate a Decision weighed.
	DecisionOption = obs.DecisionOption
)

// NewTracer returns a tracer writing NDJSON events to w (Flush before
// reading the sink).
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// ReadTraceEvents parses an NDJSON event stream captured by a Tracer.
func ReadTraceEvents(r io.Reader) ([]TraceEvent, error) { return obs.ReadEvents(r) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewRunGauges registers the sim_* gauge set on a registry.
func NewRunGauges(reg *MetricsRegistry) *RunGauges { return obs.NewRunGauges(reg) }

// TraceTimeline renders a run's decision timeline, one deterministic line
// per event (all includes step/run spans and init snapshots).
func TraceTimeline(events []TraceEvent, all bool) string { return obs.Timeline(events, all) }

// TraceOccupancy summarizes how long each PE spent on each alternate.
func TraceOccupancy(events []TraceEvent) string { return obs.Occupancy(events) }

// DiffTraceDecisions compares two runs' adaptation decisions; identical
// streams return true.
func DiffTraceDecisions(a, b []TraceEvent) (string, bool) { return obs.DiffDecisions(a, b) }

// NewStageProfiler returns a stage profiler; a non-nil registry also
// publishes sim_stage_seconds / sim_stage_allocs histograms.
func NewStageProfiler(reg *MetricsRegistry) *StageProfiler { return obs.NewStageProfiler(reg) }

// StitchTimeline merges a fabric campaign's coordinator and worker
// captures into one causally ordered event sequence.
func StitchTimeline(streams ...[]TraceEvent) []TraceEvent { return obs.StitchTimeline(streams...) }

// ExplainDecisions reconstructs the causal chain behind the elasticity
// decisions taken at one simulation second.
func ExplainDecisions(events []TraceEvent, sec int64) string { return obs.Explain(events, sec) }

// Calibration: fit the simulator to an observed system — generator
// parameters from performance traces, the input-rate profile from run
// metrics, VM prices from billing counters — and validate the fitted
// scenario as a digital twin (see internal/calibration and cmd/dfcalib).
type (
	// Scenario is the declarative JSON description of one simulation run
	// (the schema dfsim, sweeps, and calibration share; see
	// internal/scenario). Parse with ParseScenario, execute with Build.
	Scenario = scenario.Scenario
	// ScenarioRateSpec selects and parameterizes an input-rate profile in
	// the scenario schema.
	ScenarioRateSpec = scenario.RateSpec
	// ScenarioGenSpec mirrors TraceGenConfig in the scenario schema: the
	// slot fitted generator parameters are written into (Infra.CPU et al.).
	ScenarioGenSpec = scenario.GenSpec
	// GenCalibration is the result of fitting the trace generator to an
	// observed series pool: the recovered config plus diagnostics.
	GenCalibration = calibration.GenFit
	// CalibrationReport is the deterministic validation verdict: per-metric
	// residuals against tolerances plus the overall pass flag. Render with
	// JSON or Table.
	CalibrationReport = calibration.Report
	// CalibrationTolerances bounds the acceptable relative error per
	// compared metric.
	CalibrationTolerances = calibration.Tolerances
	// CostObservation is one billing reading (hours per class, total spend)
	// for the cost-model fit.
	CostObservation = calibration.CostObservation
	// MetricsExposition is a parsed Prometheus text exposition (the format
	// MetricsRegistry.WriteText emits); the importer round-trips it
	// byte-exactly.
	MetricsExposition = calibration.Exposition
)

// ParseScenario decodes and validates a scenario JSON document.
func ParseScenario(r io.Reader) (*Scenario, error) { return scenario.Parse(r) }

// ScenarioGenSpecFrom converts generator parameters to their scenario form.
func ScenarioGenSpecFrom(c TraceGenConfig) *ScenarioGenSpec { return scenario.GenSpecFrom(c) }

// Calibrate recovers trace-generator parameters (OU mean/reversion/
// variance, regime shifts, diurnal swing) from a pool of observed series by
// method of moments; the template supplies the bounds the data cannot
// identify.
func Calibrate(pool []*TraceSeries, template TraceGenConfig) (GenCalibration, error) {
	return calibration.FitGen(pool, template)
}

// FitRateProfile recovers an input-rate profile (constant or wave) from
// observed per-interval metrics.
func FitRateProfile(points []MetricPoint) (ScenarioRateSpec, error) {
	return calibration.FitRate(points)
}

// FitCostModel least-squares fits per-class hourly prices from billing
// observations.
func FitCostModel(observations []CostObservation) (map[string]float64, error) {
	return calibration.FitCost(observations)
}

// CostObservationFromFleet snapshots a fleet's billing counters at time now.
func CostObservationFromFleet(f *Fleet, now int64) CostObservation {
	return calibration.CostObservationFromFleet(f, now)
}

// Validate runs the (typically fitted) scenario through the engine and
// compares predicted against observed metrics under the tolerances.
func Validate(sc *Scenario, observed []MetricPoint, tol CalibrationTolerances) (*CalibrationReport, error) {
	return calibration.Validate(sc, observed, tol)
}

// DefaultCalibrationTolerances returns the validation defaults: tight on
// omega/gamma, looser on resource and cost aggregates.
func DefaultCalibrationTolerances() CalibrationTolerances { return calibration.DefaultTolerances() }

// ParsePrometheusText parses a Prometheus text-format exposition (0.0.4),
// e.g. a saved /metrics scrape.
func ParsePrometheusText(r io.Reader) (*MetricsExposition, error) {
	return calibration.ParsePrometheus(r)
}
