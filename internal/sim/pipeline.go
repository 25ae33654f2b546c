package sim

import (
	"fmt"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/monitor"
	"dynamicdf/internal/obs"
)

// This file is the interval pipeline: Engine.step() executes one simulated
// interval [clock, clock+interval) as an ordered sequence of named stages,
// each a method over the shared stepContext. The order is load-bearing —
// every stage documents what engine state it may mutate, and the
// invariant-checker's conservation law depends on the rehome stage's
// snapshot point. An attached stage profiler times every stage.
//
//	provision  complete pending VMs whose boot time arrived
//	faults     crash VMs whose sampled lifetime expired
//	arrivals   read rate profiles; expected (uncapped) propagation
//	rehome     move unassigned-queue messages onto hosting VMs;
//	           snapshot QueueBefore for the conservation law
//	flow       the fluid-flow computation: process, queue, deliver; Omega
//	billing    advance the clock; bill the interval; census the fleet
//	observe    feed the monitors; publish last-interval observations,
//	           gauges, and the metrics point
//	check      run the invariant checker; close the step span
type stepStage struct {
	name string
	run  func(*Engine, *stepContext) error
}

// stepStages is the pipeline, in execution order.
var stepStages = []stepStage{
	{"provision", (*Engine).stageProvision},
	{"faults", (*Engine).stageFaults},
	{"arrivals", (*Engine).stageArrivals},
	{"rehome", (*Engine).stageRehome},
	{"flow", (*Engine).stageFlow},
	{"billing", (*Engine).stageBilling},
	{"observe", (*Engine).stageObserve},
	{"check", (*Engine).stageCheck},
}

// stepContext carries one interval's intermediate values between stages. The
// engine owns a single instance whose buffers are reset (not reallocated)
// every interval, so the steady-state step performs no heap allocation.
type stepContext struct {
	sec int64   // clock at the interval's start (the clock advances in billing)
	dt  float64 // interval length in seconds

	// arrivals.
	extRate []float64 // external msg/s per input PE (valid at input indices)
	totalIn float64
	inRate  []float64 // propagation scratch
	expOut  []float64 // expected (uncapped) output rate per PE

	// flow.
	observedOut  []float64
	observedIn   []float64
	totalBacklog float64
	latencyAccum float64
	latencyN     int
	omega        float64
	totalOut     float64

	// billing.
	costUSD    float64
	activeVMs  int
	usedCores  int
	pendingVMs int

	// observe.
	meanLatency float64
	gamma       float64

	// Per-tenant accumulators (length = len(cfg.Tenants); nil outside
	// multi-tenant runs). tenOmega/tenCores are rebuilt each interval;
	// tenGamma/tenSpend are filled from engine tallies in observe so the
	// collector sees one consistent row.
	tenOmega []float64
	tenGamma []float64
	tenSpend []float64
	tenCores []int
}

// resetStepContext rewinds the engine's reusable context for a new interval.
// extRate/expOut/observedOut/observedIn are fully overwritten by their
// producing stages before any read, so only the accumulators need clearing.
func (e *Engine) resetStepContext() *stepContext {
	c := &e.ctx
	c.sec = e.clock
	c.dt = float64(e.cfg.IntervalSec)
	c.totalIn = 0
	for i := range c.inRate {
		c.inRate[i] = 0
	}
	c.totalBacklog = 0
	c.latencyAccum = 0
	c.latencyN = 0
	c.omega = 0
	c.totalOut = 0
	c.costUSD = 0
	c.activeVMs = 0
	c.usedCores = 0
	c.pendingVMs = 0
	c.meanLatency = 0
	c.gamma = 0
	for i := range c.tenOmega {
		c.tenOmega[i] = 0
		c.tenGamma[i] = 0
		c.tenSpend[i] = 0
		c.tenCores[i] = 0
	}
	return c
}

// step simulates one interval [clock, clock+interval) by running the stage
// pipeline in order. A stage error aborts the interval (and the run).
func (e *Engine) step() error {
	e.listsBuilt = false
	c := e.resetStepContext()
	for i, st := range stepStages {
		mark := e.profBegin()
		err := st.run(e, c)
		e.profEnd(i, mark)
		if err != nil {
			return err
		}
	}
	return nil
}

// RunUntil profiles the scheduler's Deploy and Adapt calls as two more
// phases, in the profiler slots after the step stages.
var (
	profDeploy = len(stepStages)
	profAdapt  = len(stepStages) + 1
)

// registerStages maps the pipeline's stage positions, then the deploy and
// adapt phases, onto the attached profiler's dense indices. Idempotent; a
// no-op with no profiler.
func (e *Engine) registerStages() {
	if e.profiler == nil {
		e.profIdx = nil
		return
	}
	e.profIdx = make([]int, 0, len(stepStages)+2)
	for _, st := range stepStages {
		e.profIdx = append(e.profIdx, e.profiler.StageIndex(st.name))
	}
	e.profIdx = append(e.profIdx, e.profiler.StageIndex("deploy"), e.profiler.StageIndex("adapt"))
}

// profBegin/profEnd are the per-stage profiler hook. Like the tracer and
// checker hooks they are nil-guarded so a detached profiler costs zero
// allocations on the step hot path (the mark lives on the caller's stack).
func (e *Engine) profBegin() obs.StageMark {
	if e.profiler == nil {
		return obs.StageMark{}
	}
	return e.profiler.Begin()
}

func (e *Engine) profEnd(i int, m obs.StageMark) {
	if e.profiler == nil {
		return
	}
	e.profiler.End(e.profIdx[i], m)
}

// stageProvision opens the step span and completes provisioning for pending
// VMs whose boot time arrived, so this interval runs on the newly booted
// capacity. Mutates: fleet pending flags, audit log.
func (e *Engine) stageProvision(c *stepContext) error {
	e.trace(obs.Event{Type: obs.EventStep, Phase: obs.PhaseStart})
	for _, vm := range e.fleet.MakeReady(c.sec) {
		e.audit(AuditEntry{Action: "vm-ready", VM: vm.ID, N: int(c.sec - vm.StartSec),
			Detail: vm.Class.Name})
	}
	return nil
}

// stageFaults crashes VMs whose lifetime expired before this interval's
// flow runs, so the interval executes on the surviving capacity. Mutates:
// fleet, arena cores/queues, loss/crash counters, monitors, audit log.
func (e *Engine) stageFaults(c *stepContext) error {
	return e.crashDueVMs(c.sec)
}

// stageArrivals reads the external arrival rates for this interval and
// computes the expected (uncapped) propagation for Def. 4's denominator:
// dataflow.FoldRates, the fold RoutedFlow.Prepare runs, over the cached
// topological order and active-successor lists into reused buffers
// (selection and routing are validated wherever they change). Mutates:
// nothing on the engine (pure reads into the context).
func (e *Engine) stageArrivals(c *stepContext) error {
	for _, pe := range e.inputKeys {
		r := e.cfg.Inputs[pe].Rate(c.sec)
		if r < 0 {
			return fmt.Errorf("sim: profile for PE %d returned negative rate %v", pe, r)
		}
		c.extRate[pe] = r
		c.totalIn += r
	}
	for _, pe := range e.inputKeys {
		c.inRate[pe] = c.extRate[pe]
	}
	dataflow.FoldRates(e.cfg.Graph, e.sel, e.topoOrder, e.activeSucc, c.inRate, c.expOut)
	return nil
}

// stageRehome moves messages that buffered while a PE had no cores (the
// virtual slot 0, VM -1) onto real hosting VMs as soon as capacity exists,
// then snapshots per-PE queue totals for the conservation law. This point —
// after crash cleanup and unassigned-queue rehoming, both of which move or
// destroy messages outside the interval's flow accounting — is where
// QueueBefore + In·dt = Processed·dt + QueueAfter holds exactly. Mutates:
// arena queues, invState.QueueBefore.
func (e *Engine) stageRehome(c *stepContext) error {
	n := e.cfg.Graph.N()
	for pe := 0; pe < n; pe++ {
		p := &e.pes[pe]
		if q := p.queue[0]; q > 0 {
			alt := e.sel.Alt(e.cfg.Graph, pe)
			total := p.computeCapacity(e, c.sec, alt)
			if total > 0 {
				p.queue[0] = 0
				p.hasQ[0] = false
				for s := 1; s < len(p.vms); s++ {
					if p.host[s] {
						p.queue[s] += q * p.capa[s] / total
						p.hasQ[s] = true
					}
				}
			}
		}
		if e.invState != nil {
			e.invState.QueueBefore[pe] = p.totalQueue()
		}
	}
	return nil
}

// stageFlow runs the fluid-flow computation — per-VM processing bounded by
// capacity, backlog drain, queueing-latency accumulation, and delivery to
// successors capped by pairwise bandwidth — then derives Omega (Def. 4).
//
// PEs run in topological order, each pulling its arrivals from predecessor
// output already computed this interval (processPE). A link's bandwidth is
// read only when its flow exceeds the edge's cap at the provider's
// bandwidth floor (linkFloorCap), the one case it can bind. Mutates: arena
// queues/shares, invState.In/Processed.
func (e *Engine) stageFlow(c *stepContext) error {
	for _, pe := range e.topoOrder {
		e.processPE(c, pe)
	}

	// Relative application throughput (Def. 4): mean over output PEs of
	// observed/expected, clamped to [0, 1].
	for _, pe := range e.outputs {
		exp := c.expOut[pe]
		if exp <= 0 {
			c.omega += 1
			continue
		}
		r := c.observedOut[pe] / exp
		if r > 1 {
			r = 1
		}
		c.omega += r
	}
	c.omega /= float64(len(e.outputs))
	for _, pe := range e.outputs {
		c.totalOut += c.observedOut[pe]
	}
	// Per-tenant Omega: the same Def. 4 fold, restricted to each tenant's
	// own output PEs.
	for t, outs := range e.tenOutputs {
		var omega float64
		for _, pe := range outs {
			exp := c.expOut[pe]
			if exp <= 0 {
				omega += 1
				continue
			}
			r := c.observedOut[pe] / exp
			if r > 1 {
				r = 1
			}
			omega += r
		}
		c.tenOmega[t] = omega / float64(len(outs))
	}
	return nil
}

// processPE runs one PE's slice of the flow stage: gather this interval's
// arrivals (external feed, then each active predecessor's delivery — the
// same accumulation sequence the push-based engine produced), process
// per-VM bounded by capacity, drain backlog, fold its queueing-latency
// terms and final backlog into the interval totals, and publish the output
// split for successors.
func (e *Engine) processPE(c *stepContext, pe int) {
	g := e.cfg.Graph
	p := &e.pes[pe]
	alt := e.sel.Alt(g, pe)
	ratedTotal := p.computeRatedShares(e)
	nslots := len(p.vms)

	for s := 0; s < nslots; s++ {
		p.arr[s] = 0
		p.hasArr[s] = false
	}
	if e.isInput[pe] {
		// External arrivals split across hosting VMs by rated share; with no
		// capacity they buffer at the virtual unassigned slot (not lost).
		rate := c.extRate[pe]
		if ratedTotal <= 0 {
			p.arr[0] += rate
			p.hasArr[0] = true
		} else {
			for s := 1; s < nslots; s++ {
				if sh := p.rshare[s]; sh > 0 {
					p.arr[s] += rate * sh
					p.hasArr[s] = true
				}
			}
		}
	}
	for _, u := range e.flowPreds[pe] {
		out := c.observedOut[u]
		if out <= 0 {
			continue
		}
		if ratedTotal <= 0 {
			// No cores downstream: buffer at the unassigned queue.
			p.arr[0] += out
			p.hasArr[0] = true
			continue
		}
		src := &e.pes[u]
		msgBytes := g.MsgBytes(u)
		floorCap := e.linkFloorCap(msgBytes)
		for t := 1; t < nslots; t++ {
			sh := p.rshare[t]
			if sh <= 0 {
				continue
			}
			want := out * sh
			if want <= 0 {
				continue
			}
			p.hasArr[t] = true
			if src.srcEmpty {
				// Source processed nothing yet output > 0 cannot happen, but
				// stay safe: treat as colocated.
				p.arr[t] += want
				continue
			}
			dstVM := p.vms[t]
			for s := 0; s < len(src.vms); s++ {
				if !src.host[s] {
					continue
				}
				flow := want * src.oshare[s]
				// Only a flow above the floor's cap (or NaN) can be
				// capped, so only it reads its link's bandwidth.
				if !(flow <= floorCap) {
					if lcap := e.linkMsgCap(src.vms[s], dstVM, msgBytes, c.sec); flow > lcap {
						flow = lcap
					}
				}
				p.arr[t] += flow
			}
		}
	}

	p.computeCapacity(e, c.sec, alt)
	// Process per hosting VM: arrivals plus backlog drain, bounded by
	// capacity; then backlog on VMs with no arrivals this interval.
	processed := 0.0
	arrivalTotal := 0.0
	for s := 0; s < nslots; s++ {
		if !p.hasArr[s] {
			continue
		}
		arr := p.arr[s]
		arrivalTotal += arr
		vcap := p.capa[s]
		q := p.queue[s]
		pr := arr + q/c.dt
		if pr > vcap {
			pr = vcap
		}
		newQ := q + (arr-pr)*c.dt
		if newQ < 1e-9 {
			newQ = 0
		}
		p.queue[s] = newQ
		p.hasQ[s] = true
		processed += pr
		if vcap > 0 {
			c.latencyAccum += newQ / vcap
			c.latencyN++
		}
	}
	for s := 0; s < nslots; s++ {
		q := p.queue[s]
		if p.hasArr[s] || q == 0 {
			continue
		}
		vcap := p.capa[s]
		pr := q / c.dt
		if pr > vcap {
			pr = vcap
		}
		newQ := q - pr*c.dt
		if newQ < 1e-9 {
			newQ = 0
		}
		p.queue[s] = newQ
		processed += pr
		if vcap > 0 {
			c.latencyAccum += newQ / vcap
			c.latencyN++
		}
	}
	// Slot by slot rather than via totalQueue: a per-PE subtotal would round
	// differently and move the Backlog column.
	for s := range p.queue {
		c.totalBacklog += p.queue[s]
	}
	c.observedIn[pe] = arrivalTotal
	out := processed * alt.Selectivity
	c.observedOut[pe] = out
	if e.invState != nil {
		e.invState.In[pe] = arrivalTotal
		e.invState.Processed[pe] = processed
	}

	// Publish the output split (each source VM's share of processed output,
	// by instantaneous capacity) for the successors' gather.
	p.srcEmpty = true
	if out > 0 {
		total := 0.0
		for s := 0; s < nslots; s++ {
			if p.host[s] {
				total += p.capa[s]
			}
		}
		if total > 0 {
			for s := 0; s < nslots; s++ {
				if p.host[s] {
					p.oshare[s] = p.capa[s] / total
				}
			}
			p.srcEmpty = false
		}
	}
}

// stageBilling advances the clock past the interval so the elapsed time is
// paid for, then takes the post-interval fleet census: cumulative cost,
// active and pending VM counts, and cores in use. Mutates: clock.
func (e *Engine) stageBilling(c *stepContext) error {
	e.clock += e.cfg.IntervalSec
	c.costUSD = e.fleet.TotalCost(e.clock)
	c.activeVMs = e.fleet.ActiveCount()
	c.pendingVMs = e.fleet.PendingCount()
	for _, vm := range e.fleet.Live() {
		if !vm.Pending() {
			c.usedCores += vm.UsedCores
		}
	}
	// Per-tenant core census for spend attribution: sum each tenant's cores
	// on active VMs (the arena's host flag marks active hosting slots, set
	// by computeCapacity during this interval's flow).
	for t := range e.cfg.Tenants {
		tn := &e.cfg.Tenants[t]
		cores := 0
		for pe := tn.LoPE; pe < tn.HiPE; pe++ {
			p := &e.pes[pe]
			for s := 1; s < len(p.vms); s++ {
				if p.host[s] {
					cores += p.cores[s]
				}
			}
		}
		c.tenCores[t] = cores
	}
	return nil
}

// stageObserve feeds the monitors with this interval's observations and
// publishes the interval to every consumer-facing surface: the View's
// last-interval fields, the live gauges, and the metrics collector. Under
// degraded monitoring a probe may be dropped (the estimator keeps its
// last-known-good value) or perturbed with multiplicative noise before
// smoothing — what the heuristics then consume via View is exactly as
// wrong as a real monitoring framework's would be. Mutates: monitors,
// lastOmega/omegaSum/omegaN, lastPE* copies, lastLatency, stepped, gauges,
// collector.
func (e *Engine) stageObserve(c *stepContext) error {
	cf := e.cfg.ControlFaults
	for _, pe := range e.inputKeys {
		if cf.probeStale(drawStaleRate, uint64(pe), e.clock) {
			e.staleProbes++
			continue
		}
		e.rateEst.Observe(pe, c.extRate[pe]*cf.probeNoise(drawNoiseRate, uint64(pe), e.clock))
	}
	for _, vm := range e.fleet.Live() {
		if vm.Pending() {
			continue
		}
		if cf.probeStale(drawStaleCPU, uint64(vm.ID), e.clock) {
			e.staleProbes++
			continue
		}
		coeff := e.coeff(vm.ID, c.sec) * cf.probeNoise(drawNoiseCPU, uint64(vm.ID), e.clock)
		_ = e.vmMon.ObserveCPU(vm.ID, monitor.Probe{Sec: e.clock, CPUCoeff: coeff})
	}

	e.lastOmega = c.omega
	e.omegaSum += c.omega
	e.omegaN++
	copy(e.lastPEIn, c.observedIn)
	e.stepped = true
	if c.latencyN > 0 {
		c.meanLatency = c.latencyAccum / float64(c.latencyN)
	}
	e.lastLatency = c.meanLatency
	// The application value only changes when the selection or routing does;
	// recompute lazily instead of re-walking the graph every interval.
	if e.gammaDirty {
		gv, err := dataflow.RoutedValue(e.cfg.Graph, e.sel, e.routing)
		if err != nil {
			return err
		}
		e.gammaV = gv
		if err := e.recomputeTenantGamma(); err != nil {
			return err
		}
		e.gammaDirty = false
	}
	c.gamma = e.gammaV
	if nt := len(e.cfg.Tenants); nt > 0 {
		// Attribute this interval's cost delta to tenants by their share of
		// assigned cores; with no cores anywhere the delta stays unattributed
		// (idle-fleet burn belongs to no tenant).
		delta := c.costUSD - e.tenPrevCost
		totalCores := 0
		for _, n := range c.tenCores {
			totalCores += n
		}
		if delta > 0 {
			if totalCores > 0 {
				for t := 0; t < nt; t++ {
					e.tenSpend[t] += delta * float64(c.tenCores[t]) / float64(totalCores)
				}
			}
			e.tenPrevCost = c.costUSD
		}
		for t := 0; t < nt; t++ {
			e.tenLastOmega[t] = c.tenOmega[t]
			e.tenOmegaSum[t] += c.tenOmega[t]
			c.tenGamma[t] = e.tenGamma[t]
			c.tenSpend[t] = e.tenSpend[t]
		}
		for t, g := range e.tenGauges {
			g[0].Set(c.tenOmega[t])
			g[1].Set(c.tenGamma[t])
			g[2].Set(c.tenSpend[t])
		}
	}
	if e.gauges != nil {
		e.gauges.Omega.Set(c.omega)
		e.gauges.Gamma.Set(c.gamma)
		e.gauges.InputRate.Set(c.totalIn)
		e.gauges.UsedCores.Set(float64(c.usedCores))
		e.gauges.PendingVMs.Set(float64(c.pendingVMs))
		e.gauges.ActiveVMs.Set(float64(c.activeVMs))
		e.gauges.Backlog.Set(c.totalBacklog)
		e.gauges.CostUSD.Set(c.costUSD)
	}
	// The point is recorded before the check stage so that even an interval
	// a strict checker aborts on remains inspectable in the partial metrics.
	if err := e.collector.Add(metrics.Point{
		Sec:        e.clock,
		Omega:      c.omega,
		Gamma:      c.gamma,
		CostUSD:    c.costUSD,
		ActiveVMs:  c.activeVMs,
		PendingVMs: c.pendingVMs,
		UsedCores:  c.usedCores,
		InputRate:  c.totalIn,
		OutputRate: c.totalOut,
		Backlog:    c.totalBacklog,
		LatencySec: c.meanLatency,
	}); err != nil {
		return err
	}
	if len(e.cfg.Tenants) > 0 {
		return e.collector.AddTenant(c.tenOmega, c.tenGamma, c.tenSpend)
	}
	return nil
}

// recomputeTenantGamma refreshes each tenant's cached application value
// against its standalone graph, slicing the composite selection and routing
// to the tenant's ranges. Called under the same dirty flag as the global Γ.
func (e *Engine) recomputeTenantGamma() error {
	for t := range e.cfg.Tenants {
		tn := &e.cfg.Tenants[t]
		gv, err := dataflow.RoutedValue(tn.Graph,
			dataflow.Selection(e.sel[tn.LoPE:tn.HiPE]),
			dataflow.Routing(e.routing[tn.LoChoice:tn.HiChoice]))
		if err != nil {
			return fmt.Errorf("sim: tenant %q gamma: %w", tn.Name, err)
		}
		e.tenGamma[t] = gv
	}
	return nil
}

// stageCheck hands the end-of-interval state to the invariant checker,
// emits the QoS-violation event when Omega fell below the configured floor,
// and closes the step span. A strict checker's violation is the stage
// error, aborting the run. Mutates: prevCost (via checkStep), gauges
// violation count.
func (e *Engine) stageCheck(c *stepContext) error {
	viol := e.checkStep(c.omega, c.gamma, c.costUSD, c.totalBacklog)
	// A violation event formats its floor, so it is built only for an
	// attached tracer: without one, an interval below the floor allocates
	// nothing.
	if e.tracer != nil {
		if e.cfg.OmegaFloor > 0 && c.omega < e.cfg.OmegaFloor {
			e.trace(obs.Event{Type: obs.EventOmegaViolation, Value: c.omega,
				Detail: fmt.Sprintf("floor=%g", e.cfg.OmegaFloor)})
		}
		for t := range e.cfg.Tenants {
			tn := &e.cfg.Tenants[t]
			if tn.OmegaFloor > 0 && c.tenOmega[t] < tn.OmegaFloor {
				e.trace(obs.Event{Type: obs.EventOmegaViolation, Value: c.tenOmega[t],
					Tenant: tn.Name, Detail: fmt.Sprintf("floor=%g", tn.OmegaFloor)})
			}
		}
	}
	e.trace(obs.Event{Type: obs.EventStep, Phase: obs.PhaseEnd, Value: c.omega,
		N: c.usedCores})
	return viol
}
