package main

import (
	"time"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/sim"
)

// probe collects a traced run's per-layer measurements. Every method is a
// no-op on a nil probe, so an untraced run goes through the same code with
// nothing attached but the Deploy/Adapt timer.
type probe struct {
	spans     *spanLog
	decisions *decisionCounter
	tracer    *obs.Tracer
	profiler  *obs.StageProfiler

	samples map[string][]float64 // per-layer samples by metric name

	// Σ Adapt and Σ run wall over the runs stepped under the probe.
	adaptMs, runMs float64
	// Fleet samples taken between intervals.
	peakVMs                      int
	vmSum, intervals, used, paid float64
}

func newProbe() *probe {
	dc := newDecisionCounter()
	return &probe{
		spans:     newSpanLog(),
		decisions: dc,
		tracer:    obs.NewTracer(dc),
		profiler:  obs.NewStageProfiler(nil),
		samples:   map[string][]float64{},
	}
}

func (p *probe) begin(parent int, name string) int {
	if p == nil {
		return 0
	}
	return p.spans.begin(parent, name)
}

func (p *probe) end(id int) {
	if p != nil {
		p.spans.end(id)
	}
}

func (p *probe) spanLog() *spanLog {
	if p == nil {
		return nil
	}
	return p.spans
}

// eventTracer is the tracer whose decision events the probe counts.
func (p *probe) eventTracer() *obs.Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

func (p *probe) add(name string, v float64) {
	if p != nil {
		p.samples[name] = append(p.samples[name], v)
	}
}

// attach hooks the stage profiler and tr onto an engine.
func (p *probe) attach(eng *sim.Engine, tr *obs.Tracer) {
	if p == nil {
		return
	}
	eng.SetProfiler(p.profiler)
	eng.SetTracer(tr)
}

func (p *probe) addRun(adapts []float64, wall time.Duration) {
	if p == nil {
		return
	}
	p.adaptMs += sum(adapts)
	p.runMs += ms(wall)
	p.samples["core.adapt_ms"] = append(p.samples["core.adapt_ms"], adapts...)
}

// sampleFleet records the fleet's size and core use after one interval.
func (p *probe) sampleFleet(eng *sim.Engine) {
	active := eng.Fleet().Active()
	p.peakVMs = max(p.peakVMs, len(active))
	p.vmSum += float64(len(active))
	p.intervals++
	for _, vm := range active {
		p.used += float64(vm.UsedCores)
		p.paid += float64(vm.Class.Cores)
	}
}
