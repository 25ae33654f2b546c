package experiments

import (
	"fmt"
	"strings"
)

// SpotRow is one policy's outcome on a cloud with a spot market.
type SpotRow struct {
	RunResult
	Preemptions int
}

// SpotMarketResult compares the global heuristic with and without spot
// spilling on a cloud offering preemptible twins of every class at a
// fraction of the on-demand price. The constraint-critical base stays
// on-demand; only headroom rides the spot market, so preemptions cost
// re-provisioning churn, not the QoS constraint. (Extension beyond the
// paper's on-demand-only §4 model.)
type SpotMarketResult struct {
	PriceFraction float64
	MTBFHours     float64
	Rows          []SpotRow
}

// RunSpotMarket executes the comparison at the given rate, with both
// variabilities: the scenario's spot block offers the market, and its
// policy spills headroom onto it or not.
func RunSpotMarket(c Config, rate, priceFraction, preemptMTBFHours float64) (SpotMarketResult, error) {
	if priceFraction <= 0 || priceFraction >= 1 {
		return SpotMarketResult{}, fmt.Errorf("experiments: spot price fraction %v outside (0,1)", priceFraction)
	}
	if preemptMTBFHours <= 0 {
		return SpotMarketResult{}, fmt.Errorf("experiments: preemption MTBF %v <= 0", preemptMTBFHours)
	}
	market := patch(fmt.Sprintf(`{"spot": {"priceFraction": %g, "preemptMTBFHours": %g}}`, priceFraction, preemptMTBFHours))
	out := SpotMarketResult{PriceFraction: priceFraction, MTBFHours: preemptMTBFHours}
	for _, useSpot := range []bool{false, true} {
		sc, err := c.evalScenario(c.rate(rate), c.variability("both"), market, policies["global"],
			patch(fmt.Sprintf(`{"policy": {"useSpot": %t}}`, useSpot)))
		if err != nil {
			return SpotMarketResult{}, err
		}
		b, err := sc.Build()
		if err != nil {
			return SpotMarketResult{}, err
		}
		sum, err := b.Engine.Run(b.Scheduler)
		if err != nil {
			return SpotMarketResult{}, err
		}
		row := SpotRow{RunResult: RunResult{Policy: "global (on-demand only)", Rate: rate, Scenario: "both"},
			Preemptions: b.Engine.Preemptions()}
		if useSpot {
			row.Policy = "global + spot spill"
		}
		row.SetSummary(b, sum)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the comparison.
func (r SpotMarketResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Spot market (extension) — preemptible twins at %.0f%% price, preemption MTBF %.1f h\n",
		r.PriceFraction*100, r.MTBFHours)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s preemptions=%d\n", row.RunResult.String(), row.Preemptions)
	}
	return b.String()
}
