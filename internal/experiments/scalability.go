package experiments

import (
	"fmt"
	"strings"
	"time"

	"dynamicdf/internal/core"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
)

// ScalabilityRow measures heuristic decision latency on one instance size.
type ScalabilityRow struct {
	PEs        int
	Alternates int
	Rate       float64
	PeakVMs    int
	MeanOmega  float64
	// MeanAdapt and MaxAdapt are the wall-clock costs of one runtime
	// adaptation decision (Alg. 2), the quantity §7 argues must stay
	// "near real time" for continuous adaptation to beat slow optimal
	// solvers.
	MeanAdapt time.Duration
	MaxAdapt  time.Duration
}

// ScalabilityResult backs the paper's scalability claim (§8.1: the
// dataflow "is scaled up to 10's of alternates and 100's of VMs") with
// decision-latency measurements across instance sizes.
type ScalabilityResult struct {
	Rows []ScalabilityRow
}

// timedScheduler wraps a scheduler and records Adapt durations.
type timedScheduler struct {
	inner sim.Scheduler
	n     int
	total time.Duration
	max   time.Duration
}

func (t *timedScheduler) Name() string { return t.inner.Name() }
func (t *timedScheduler) Deploy(v *sim.View, act sim.Control) error {
	return t.inner.Deploy(v, act)
}
func (t *timedScheduler) Adapt(v *sim.View, act sim.Control) error {
	start := time.Now()
	err := t.inner.Adapt(v, act)
	d := time.Since(start)
	t.n++
	t.total += d
	if d > t.max {
		t.max = d
	}
	return err
}

// RunScalability sweeps instance sizes: (width, depth, rate) tuples chosen
// so the largest instance drives the fleet into the hundreds of VMs. Each
// is the evaluation scenario on a layered dataflow with infrastructure
// variability; the heuristic's growth cap and the Adapt timer, which the
// scenario schema does not carry, wrap the built run's policy.
func RunScalability(c Config) (ScalabilityResult, error) {
	shapes := []struct {
		width, depth, alts int
		rate               float64
	}{
		{2, 1, 5, 10},
		{2, 2, 5, 25},
		{4, 2, 5, 50},
		{4, 4, 8, 100},
		{8, 4, 10, 150},
	}
	// Decision latency stabilizes within the first hour; a fixed horizon
	// keeps the big-fleet instances affordable.
	c.HorizonSec = 3600
	var out ScalabilityResult
	for _, s := range shapes {
		sc, err := c.evalScenario(c.rate(s.rate), c.variability("infra"), policies["global"],
			patch(`{"maxVMs": 2048}`))
		if err != nil {
			return ScalabilityResult{}, err
		}
		sc.Graph, sc.Choices = scenario.FromGraph(dataflow.LayeredGraph(s.width, s.depth, s.alts))
		b, err := sc.Build()
		if err != nil {
			return ScalabilityResult{}, err
		}
		h, err := core.NewHeuristic(core.Options{
			Strategy: core.Global, Dynamic: true, Adaptive: true, Objective: b.Objective,
			MaxGrowPerInterval: 512,
		})
		if err != nil {
			return ScalabilityResult{}, err
		}
		timed := &timedScheduler{inner: h}
		sum, err := b.Engine.Run(timed)
		if err != nil {
			return ScalabilityResult{}, err
		}
		row := ScalabilityRow{
			PEs:        b.Config.Graph.N(),
			Alternates: s.alts,
			Rate:       s.rate,
			PeakVMs:    sum.PeakVMs,
			MeanOmega:  sum.MeanOmega,
			MaxAdapt:   timed.max,
		}
		if timed.n > 0 {
			row.MeanAdapt = timed.total / time.Duration(timed.n)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the scalability sweep.
func (r ScalabilityResult) Table() string {
	var b strings.Builder
	b.WriteString("Scalability — heuristic decision latency vs instance size (global adaptive, infra variability)\n")
	b.WriteString("PEs  alts/PE  rate   peakVMs  omega   adapt(mean)   adapt(max)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%3d  %7d  %4.0f   %7d  %.3f   %11v   %10v\n",
			row.PEs, row.Alternates, row.Rate, row.PeakVMs, row.MeanOmega,
			row.MeanAdapt.Round(time.Microsecond), row.MaxAdapt.Round(time.Microsecond))
	}
	return b.String()
}
