package experiments

import (
	"fmt"
	"strings"
)

// FaultToleranceResult extends the evaluation along the paper's §9 future
// work: VM crashes are injected (exponential lifetimes) and the policies'
// ability to keep the throughput constraint is compared. The dynamic
// policies may switch to cheaper alternates to restore throughput with
// surviving capacity while replacements spin up.
type FaultToleranceResult struct {
	MTBFHours float64
	Rows      []FaultRow
}

// FaultRow is one policy's outcome under failures.
type FaultRow struct {
	RunResult
	Crashes      int
	LostMessages float64
}

// RunFaultTolerance compares static and adaptive policies (with and
// without dynamism) under VM crashes at the given data rate, on an ideal
// cloud with a constant input: the scenario's failureMTBFHours.
func RunFaultTolerance(c Config, rate float64, mtbfHours float64) (FaultToleranceResult, error) {
	if mtbfHours <= 0 {
		return FaultToleranceResult{}, fmt.Errorf("experiments: mtbf %v <= 0", mtbfHours)
	}
	crashes := patch(fmt.Sprintf(`{"failureMTBFHours": %g}`, mtbfHours))
	out := FaultToleranceResult{MTBFHours: mtbfHours}
	for _, policy := range []string{"global-static", "global-nodyn", "global"} {
		sc, err := c.evalScenario(c.rate(rate), crashes, policies[policy])
		if err != nil {
			return FaultToleranceResult{}, err
		}
		b, err := sc.Build()
		if err != nil {
			return FaultToleranceResult{}, err
		}
		sum, err := b.Engine.Run(b.Scheduler)
		if err != nil {
			return FaultToleranceResult{}, err
		}
		row := FaultRow{RunResult: RunResult{Policy: policy, Rate: rate, Scenario: "none"},
			Crashes: b.Engine.Crashes(), LostMessages: b.Engine.LostMessages()}
		row.SetSummary(b, sum)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Table renders the fault-tolerance comparison.
func (r FaultToleranceResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault tolerance (§9 extension) — VM crashes with MTBF %.1f h\n", r.MTBFHours)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s crashes=%d lost=%.0f msgs\n", row.RunResult.String(), row.Crashes, row.LostMessages)
	}
	return b.String()
}
