package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"unsafe"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/monitor"
	"dynamicdf/internal/obs"
)

// ErrCanceled is returned (wrapped) by RunContext when the context is
// cancelled before the horizon is reached. Detect it with
// errors.Is(err, ErrCanceled); the run's partial metrics remain readable
// through Collector(), as rows unless the engine is SummaryOnly, whose
// collector holds only the partial summary.
var ErrCanceled = errors.New("sim: run canceled")

// Engine executes a configured scenario.
type Engine struct {
	cfg     Config
	clock   int64
	fleet   *cloud.Fleet
	sel     dataflow.Selection
	routing dataflow.Routing

	// pes is the flow arena: per-PE struct-of-arrays state (cores, queues,
	// per-interval arrivals/capacity/share scratch) replacing the old
	// per-PE maps. See arena.go.
	pes []peState

	// Monitoring state exposed through View.
	rateEst   *monitor.RateEstimator
	vmMon     *monitor.VMMonitor
	lastOmega float64
	omegaSum  float64
	omegaN    int
	lastPEIn  []float64 // observed arrival rate per PE, last interval

	migratedBytes float64
	crashCount    int
	preemptions   int
	lostMessages  float64
	lastLatency   float64
	auditLog      []obs.Event
	tracer        *obs.Tracer
	gauges        *obs.RunGauges
	collector     *metrics.Collector
	stepped       bool
	// listsBuilt marks fleetLists as built for the current interval. It,
	// gammaDirty and deployed sit here, in stepped's padding, to keep the
	// Engine and its 8-byte allocation header in one 1408-byte size class.
	listsBuilt bool
	// gammaDirty forces gammaV's recompute.
	gammaDirty bool
	// deployed flips once the scheduler's Deploy phase has run, so a
	// restored engine resumes without redeploying.
	deployed bool

	// Per-stage profiling: profIdx maps the pipeline's stage positions to
	// the attached profiler's dense indices; nil profiler = zero overhead.
	profiler *obs.StageProfiler
	profIdx  []int

	// Cached at NewEngine: the graph's topological order, the sorted
	// input-PE key list (and its membership mask), and the output-PE list —
	// loop invariants of every interval.
	topoOrder []int
	inputKeys []int
	isInput   []bool
	outputs   []int

	// Routing-dependent flow topology, rebuilt by rebuildFlowCaches.
	activeSucc [][]int
	flowPreds  [][]int

	// gammaV caches dataflow.RoutedValue, which only changes when the
	// selection or routing does (see gammaDirty).
	gammaV float64

	// ctx is the reused per-interval stage context.
	ctx stepContext

	// bwFloor is the bandwidth floor cfg.Perf declares (bandwidthFloor), NaN
	// when it declares none.
	bwFloor float64

	// Run lifecycle (and deployed, above). sched is the scheduler driving
	// the current run (checkpointed when stateful); pendingSchedState
	// carries a restored snapshot's scheduler blob until RunUntil hands it
	// to the scheduler; restoredViolations preserves the violation count a
	// restored snapshot was taken with.
	sched              Scheduler
	pendingSchedState  []byte
	restoredViolations int

	// Control-plane fault bookkeeping: a monotone acquisition-attempt
	// counter keys the deterministic failure/boot draws; the tallies are
	// exposed for tests and tools.
	acquireAttempts int64
	acquireFailures int
	staleProbes     int
	// fleetFull is the error every acquisition refused at MaxVMs returns,
	// built on the first refusal: a starved policy retries each interval,
	// and a refusal allocates nothing after the first.
	fleetFull error

	// Invariant checking: checkStep hands invState (a reused snapshot
	// buffer) to the checker at the end of every interval. crashEvents and
	// preemptEvents tally audited crash/preempt events on the audit path so
	// the audit-consistency law can cross-check them against the counters
	// incremented where VMs actually die.
	checker       *invariant.Checker
	invState      *invariant.State
	prevCost      float64
	gammaMin      float64
	gammaMax      float64
	crashEvents   int
	preemptEvents int

	// Dense per-tenant dimension, all nil/zero outside multi-tenant runs:
	// tenOutputs holds each tenant's output PEs as composite-graph indices,
	// tenLastOmega/tenOmegaSum mirror the global Ω tallies, tenGamma caches
	// per-tenant RoutedValue under the same dirty flag as gammaV, tenSpend
	// accumulates attributed dollars (tenPrevCost marks the last attributed
	// cost level), and tenGauges caches the labeled gauge handles so the
	// observe stage never allocates.
	tenOutputs   [][]int
	tenLastOmega []float64
	tenOmegaSum  []float64
	tenGamma     []float64
	tenSpend     []float64
	tenPrevCost  float64
	tenGauges    [][3]*obs.Gauge
	// tenViews are the tenant-scoped views View.Tenant hands out, built
	// once so that scoping a view allocates nothing.
	tenViews []View

	// fleetLists are the active and pending VM lists every View shares
	// (fleetlists.go).
	fleetLists fleetLists
}

// NewEngine validates the config and prepares an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	newCollector := metrics.NewCollector
	if cfg.SummaryOnly {
		newCollector = metrics.NewSummaryCollector
	}
	e := &Engine{
		cfg:       cfg,
		fleet:     cloud.NewFleet(cfg.Menu),
		sel:       dataflow.DefaultSelection(cfg.Graph),
		routing:   dataflow.DefaultRouting(cfg.Graph),
		pes:       make([]peState, n),
		lastPEIn:  make([]float64, n),
		collector: newCollector(),
	}
	for i := 0; i < n; i++ {
		e.pes[i] = newPEState()
	}
	order, err := cfg.Graph.TopoOrder()
	if err != nil {
		return nil, err
	}
	e.topoOrder = order
	e.inputKeys = sortedKeys(cfg.Inputs)
	e.isInput = make([]bool, n)
	for _, pe := range e.inputKeys {
		e.isInput[pe] = true
	}
	e.outputs = cfg.Graph.Outputs()
	e.bwFloor = math.NaN()
	if f, ok := cfg.Perf.(bandwidthFloor); ok {
		e.bwFloor = f.BandwidthFloorMbps()
	}
	e.rebuildFlowCaches()
	e.ctx = stepContext{
		extRate:     make([]float64, n),
		inRate:      make([]float64, n),
		expOut:      make([]float64, n),
		observedOut: make([]float64, n),
		observedIn:  make([]float64, n),
	}
	if nt := len(cfg.Tenants); nt > 0 {
		e.tenOutputs = make([][]int, nt)
		names := make([]string, nt)
		for i, t := range cfg.Tenants {
			names[i] = t.Name
			outs := t.Graph.Outputs()
			global := make([]int, len(outs))
			for j, pe := range outs {
				global[j] = t.LoPE + pe
			}
			e.tenOutputs[i] = global
		}
		e.tenLastOmega = make([]float64, nt)
		e.tenOmegaSum = make([]float64, nt)
		e.tenGamma = make([]float64, nt)
		e.tenSpend = make([]float64, nt)
		e.ctx.tenOmega = make([]float64, nt)
		e.ctx.tenGamma = make([]float64, nt)
		e.ctx.tenSpend = make([]float64, nt)
		e.ctx.tenCores = make([]int, nt)
		e.tenViews = make([]View, nt)
		for i := range e.tenViews {
			e.tenViews[i] = View{e: e, ten: i + 1}
		}
		if err := e.collector.SetTenants(names); err != nil {
			return nil, err
		}
	}
	e.collector.Reserve(reservedRows(cfg.HorizonSec/cfg.IntervalSec, len(cfg.Tenants)))
	e.rateEst, _ = monitor.NewRateEstimator(cfg.MonitorAlpha)
	e.vmMon, _ = monitor.NewVMMonitor(cfg.MonitorAlpha)
	if cfg.Checker != nil {
		e.checker = cfg.Checker
		e.invState = &invariant.State{
			In:          make([]float64, n),
			Processed:   make([]float64, n),
			QueueBefore: make([]float64, n),
			QueueAfter:  make([]float64, n),
		}
		if nt := len(cfg.Tenants); nt > 0 {
			e.invState.TenantOmega = make([]float64, nt)
		}
		e.gammaMin, e.gammaMax = alternateValueRange(cfg.Graph)
	}
	return e, nil
}

// seriesReserveBytes caps the metric series NewEngine reserves up front. A
// run adds exactly one row per interval, so reserving the horizon's rows
// keeps the series from regrowing mid-run; nothing bounds a scenario's
// horizon or tenant count, so without the cap one document could make Build
// allocate without limit. Past the cap the series grows by append.
const seriesReserveBytes = 2 << 20

// reservedRows is how many metric rows NewEngine reserves for a run of the
// given intervals and tenants: all of them, up to seriesReserveBytes of
// rows (one Point plus three float64 columns per tenant each).
func reservedRows(intervals int64, tenants int) int {
	row := int64(unsafe.Sizeof(metrics.Point{})) + 3*int64(tenants)*int64(unsafe.Sizeof(float64(0)))
	return int(min(intervals, seriesReserveBytes/row))
}

// bindTenantGauges caches one labeled gauge handle per tenant and series so
// the observe stage sets them without going through GaugeVec.With (which
// allocates a wrapper per call). No-op unless both tenants and a gauge set
// with tenant vecs are present.
func (e *Engine) bindTenantGauges() {
	nt := len(e.cfg.Tenants)
	if nt == 0 || e.gauges == nil ||
		e.gauges.TenantOmega == nil || e.gauges.TenantGamma == nil || e.gauges.TenantSpend == nil {
		e.tenGauges = nil
		return
	}
	e.tenGauges = make([][3]*obs.Gauge, nt)
	for i, t := range e.cfg.Tenants {
		e.tenGauges[i] = [3]*obs.Gauge{
			e.gauges.TenantOmega.With(t.Name),
			e.gauges.TenantGamma.With(t.Name),
			e.gauges.TenantSpend.With(t.Name),
		}
	}
}

// Now returns the simulation clock in seconds.
func (e *Engine) Now() int64 { return e.clock }

// Collector returns the per-interval metrics recorded so far. A SummaryOnly
// engine's collector holds no rows, only their summary.
func (e *Engine) Collector() *metrics.Collector { return e.collector }

// Selection returns the live alternate selection (shared; do not mutate).
func (e *Engine) Selection() dataflow.Selection { return e.sel }

// Fleet exposes the VM fleet for inspection (tests, experiments).
func (e *Engine) Fleet() *cloud.Fleet { return e.fleet }

// Run drives the scenario to the horizon under the scheduler and returns
// the period summary. Scheduler errors abort the run.
func (e *Engine) Run(s Scheduler) (metrics.Summary, error) {
	return e.RunContext(context.Background(), s)
}

// RunContext is Run with cooperative cancellation: the context is checked
// before every interval, so a cancelled sweep job stops mid-horizon instead
// of simulating to completion. A cancelled run returns an error wrapping
// both ErrCanceled and the context's cause.
func (e *Engine) RunContext(ctx context.Context, s Scheduler) (metrics.Summary, error) {
	if err := e.RunUntil(ctx, s, e.cfg.HorizonSec); err != nil {
		return metrics.Summary{}, err
	}
	sum := e.collector.Summarize()
	e.trace(obs.Event{Type: obs.EventRun, Phase: obs.PhaseEnd, Detail: s.Name(),
		Value: sum.MeanOmega})
	return sum, nil
}

// RunUntil advances the simulation to untilSec (an interval boundary at or
// before the horizon) under the scheduler, without summarizing or closing
// the run span. On a fresh engine it emits the run-start span and drives the
// scheduler's Deploy phase; on an engine restored from a checkpoint it
// resumes mid-run — hands the snapshot's scheduler state to s if it is a
// StatefulScheduler, skips Deploy, and continues stepping — so the
// concatenated event streams of a checkpointed prefix run and its resumption
// are byte-identical to one uninterrupted run. Call it repeatedly with
// growing horizons to interleave stepping with checkpoints, then finish with
// RunContext (which runs any remaining intervals).
func (e *Engine) RunUntil(ctx context.Context, s Scheduler, untilSec int64) error {
	if s == nil {
		return fmt.Errorf("sim: nil scheduler")
	}
	if untilSec < e.clock || untilSec > e.cfg.HorizonSec || untilSec%e.cfg.IntervalSec != 0 {
		return fmt.Errorf("sim: run-until %ds: want a multiple of interval %ds in [clock %ds, horizon %ds]",
			untilSec, e.cfg.IntervalSec, e.clock, e.cfg.HorizonSec)
	}
	e.sched = s
	view := &View{e: e}
	act := &Actions{e: e}
	if !e.deployed {
		e.trace(obs.Event{Type: obs.EventRun, Phase: obs.PhaseStart, Detail: s.Name(),
			N: int(e.cfg.HorizonSec)})
		if e.tracer != nil {
			// Snapshot the initial alternate selection so occupancy analysis
			// knows what each PE ran before the first explicit switch.
			for pe := 0; pe < e.cfg.Graph.N(); pe++ {
				alt := e.sel.Alt(e.cfg.Graph, pe)
				e.trace(obs.Event{Type: obs.EventSelectAlternate, Phase: obs.PhaseInit,
					PE: pe, N: e.sel[pe], Detail: alt.Name})
			}
		}
		mark := e.profBegin()
		err := s.Deploy(view, act)
		e.profEnd(profDeploy, mark)
		if err != nil {
			return fmt.Errorf("sim: deploy (%s): %w", s.Name(), err)
		}
		e.deployed = true
	} else if e.pendingSchedState != nil {
		if ss, ok := s.(StatefulScheduler); ok {
			if err := ss.RestoreState(e.pendingSchedState); err != nil {
				return fmt.Errorf("sim: restore scheduler state (%s): %w", s.Name(), err)
			}
		}
		e.pendingSchedState = nil
	}
	for e.clock < untilSec {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w at t=%ds: %v", ErrCanceled, e.clock, err)
		}
		// Adapt runs before every interval except the very first of the run
		// (clock 0 right after Deploy) — the same cadence on a resumed
		// engine, whose clock is past 0, as on an uninterrupted one.
		if e.clock > 0 {
			mark := e.profBegin()
			err := s.Adapt(view, act)
			e.profEnd(profAdapt, mark)
			if err != nil {
				return fmt.Errorf("sim: adapt (%s) at %d: %w", s.Name(), e.clock, err)
			}
		}
		if err := e.step(); err != nil {
			return err
		}
	}
	return nil
}

// vmTraceID derives the stable trace id for a VM.
func (e *Engine) vmTraceID(vmID int) int64 {
	return e.cfg.Seed*1_000_003 + int64(vmID)
}

// coeff returns the true instantaneous CPU coefficient for a VM (the
// engine's ground truth; the monitored estimate is what schedulers see).
func (e *Engine) coeff(vmID int, sec int64) float64 {
	return e.cfg.Perf.CPUCoeff(e.vmTraceID(vmID), sec)
}

// linkMsgCap converts pairwise bandwidth into a message rate cap for an
// edge whose messages are msgBytes large. Colocated VMs short-circuit.
func (e *Engine) linkMsgCap(srcVM, dstVM int, msgBytes int, sec int64) float64 {
	if srcVM == dstVM {
		return inf
	}
	return msgRate(e.cfg.Perf.BandwidthMbps(e.vmTraceID(srcVM), e.vmTraceID(dstVM), sec), msgBytes)
}

// msgRate is how many msgBytes-large messages per second a link of bwMbps
// carries.
func msgRate(bwMbps float64, msgBytes int) float64 {
	bytesPerSec := bwMbps * 1e6 / 8
	return bytesPerSec / float64(msgBytes)
}

// bandwidthFloor is the optional method by which a trace.Provider declares
// a value no BandwidthMbps result is below.
type bandwidthFloor interface{ BandwidthFloorMbps() float64 }

// linkFloorCap is linkMsgCap at the provider's bandwidth floor, through the
// same msgRate, and at most the colocated cap. IEEE multiplication and
// division by positive constants are monotone, so every link of an edge
// whose messages are msgBytes large caps at or above it: a flow at or below
// it is never capped, and its bandwidth need not be read. It is NaN, which
// no flow is at or below, when the provider declares no floor.
func (e *Engine) linkFloorCap(msgBytes int) float64 {
	if msgBytes <= 0 {
		return math.NaN()
	}
	return min(msgRate(e.bwFloor, msgBytes), inf)
}

const inf = 1e18

// sortedKeys returns a map's keys ascending so float accumulation and
// tie-breaking are order-stable across runs.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// AcquireFailures reports how many AcquireVM attempts hit a transient
// insufficient-capacity error so far.
func (e *Engine) AcquireFailures() int { return e.acquireFailures }

// StaleProbes reports how many monitor probes (input rates and VM CPU
// coefficients) were dropped by degraded monitoring so far.
func (e *Engine) StaleProbes() int { return e.staleProbes }

// MigratedBytes reports the cumulative message-buffer bytes moved by core
// unassignments and VM releases.
func (e *Engine) MigratedBytes() float64 { return e.migratedBytes }
