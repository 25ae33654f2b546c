package experiments

import (
	"fmt"
	"strings"

	"dynamicdf/internal/metrics"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
)

// LatencyRow is one latency-bound setting's outcome.
type LatencyRow struct {
	BoundSec    float64 // 0 = unconstrained
	MeanLatency float64
	P95Latency  float64
	MeanOmega   float64
	CostUSD     float64
}

// LatencyQoSResult sweeps the optional mean-latency bound (the extension of
// §6's QoS dimensions beyond throughput) under a spiky workload that builds
// backlogs a pure-throughput controller tolerates: tighter bounds force the
// resource stage to size capacity for backlog drain, trading dollars for
// tail latency.
type LatencyQoSResult struct {
	Rate float64
	Rows []LatencyRow
}

// RunLatencyQoS executes the sweep at the given rate. Each bound is the
// scenario's latencyHatSec on an ideal cloud; the spiky input, which the
// scenario schema cannot express, replaces the lowered run's constant one.
func RunLatencyQoS(c Config, rate float64) (LatencyQoSResult, error) {
	out := LatencyQoSResult{Rate: rate}
	for _, bound := range []float64{0, 120, 30, 10} {
		sc, err := c.evalScenario(c.rate(rate), policies["global"],
			patch(fmt.Sprintf(`{"latencyHatSec": %g}`, bound)))
		if err != nil {
			return LatencyQoSResult{}, err
		}
		b, err := sc.Lower(nil)
		if err != nil {
			return LatencyQoSResult{}, err
		}
		base, err := rates.NewConstant(rate)
		if err != nil {
			return LatencyQoSResult{}, err
		}
		prof, err := rates.NewSpike(base, 3, 1800, 300)
		if err != nil {
			return LatencyQoSResult{}, err
		}
		b.Config.Inputs = map[int]rates.Profile{b.Config.Graph.Inputs()[0]: prof}
		eng, err := sim.NewEngine(b.Config)
		if err != nil {
			return LatencyQoSResult{}, err
		}
		sum, err := eng.Run(b.Scheduler)
		if err != nil {
			return LatencyQoSResult{}, err
		}
		out.Rows = append(out.Rows, LatencyRow{
			BoundSec:    bound,
			MeanLatency: sum.MeanLatencySec,
			P95Latency:  eng.Collector().Quantile(0.95, func(p metrics.Point) float64 { return p.LatencySec }),
			MeanOmega:   sum.MeanOmega,
			CostUSD:     sum.TotalCostUSD,
		})
	}
	return out, nil
}

// Table renders the sweep.
func (r LatencyQoSResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Latency QoS (extension) — mean-latency bound sweep at %.0f msg/s, 3x spikes every 30 min\n", r.Rate)
	b.WriteString("bound(s)   mean-lat(s)   p95-lat(s)   omega   cost($)\n")
	for _, row := range r.Rows {
		bound := "none"
		if row.BoundSec > 0 {
			bound = fmt.Sprintf("%.0f", row.BoundSec)
		}
		fmt.Fprintf(&b, "%-8s   %11.1f   %10.1f   %.3f   %7.2f\n",
			bound, row.MeanLatency, row.P95Latency, row.MeanOmega, row.CostUSD)
	}
	return b.String()
}
