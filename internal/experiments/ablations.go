package experiments

import (
	"fmt"
	"strings"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/core"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/sim"
)

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	Summary metrics.Summary
	Theta   float64
	Meets   bool
}

// AblationResult compares design-choice variants of the global adaptive
// heuristic on one scenario (20 msg/s, both variabilities). These are the
// knobs DESIGN.md calls out: hour-boundary release window, scale-down
// hysteresis, alternate-stage cadence, runtime consolidation, and
// monitoring smoothing.
type AblationResult struct {
	Rows []AblationRow
}

// RunAblations executes every variant. Each runs the evaluation scenario
// at 20 msg/s with both variabilities, lowered, with the variant's
// heuristic options and monitor smoothing applied to the lowered run: the
// scenario schema carries neither.
func RunAblations(c Config) (AblationResult, error) {
	variants := []struct {
		name  string
		opts  func(*core.Options)
		alpha float64
	}{
		{"baseline (paper defaults)", func(*core.Options) {}, 0},
		{"release immediately (no boundary wait)", func(o *core.Options) {
			o.ReleaseWindowSec = cloud.SecondsPerHour // any idle VM goes at once
		}, 0},
		{"no scale-down hysteresis", func(o *core.Options) { o.Hysteresis = 0.005 }, 0},
		{"wide hysteresis (0.35)", func(o *core.Options) { o.Hysteresis = 0.35 }, 0},
		{"alternate stage every interval", func(o *core.Options) { o.AlternatePeriod = 1 }, 0},
		{"alternate stage every 15 intervals", func(o *core.Options) { o.AlternatePeriod = 15 }, 0},
		{"no consolidation", func(o *core.Options) { o.NoConsolidate = true }, 0},
		{"jumpy monitoring (alpha 0.95)", func(*core.Options) {}, 0.95},
		{"sluggish monitoring (alpha 0.1)", func(*core.Options) {}, 0.1},
	}

	sc, err := c.evalScenario(c.rate(20), c.variability("both"), policies["global"])
	if err != nil {
		return AblationResult{}, err
	}
	var out AblationResult
	for _, vnt := range variants {
		b, err := sc.Lower(nil)
		if err != nil {
			return AblationResult{}, err
		}
		opts := core.Options{Strategy: core.Global, Dynamic: true, Adaptive: true, Objective: b.Objective}
		vnt.opts(&opts)
		h, err := core.NewHeuristic(opts)
		if err != nil {
			return AblationResult{}, fmt.Errorf("ablation %q: %w", vnt.name, err)
		}
		b.Config.MonitorAlpha = vnt.alpha
		eng, err := sim.NewEngine(b.Config)
		if err != nil {
			return AblationResult{}, err
		}
		sum, err := eng.Run(h)
		if err != nil {
			return AblationResult{}, fmt.Errorf("ablation %q: %w", vnt.name, err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Variant: vnt.name,
			Summary: sum,
			Theta:   b.Objective.Theta(sum.MeanGamma, sum.TotalCostUSD),
			Meets:   b.Objective.MeetsConstraint(sum.MeanOmega),
		})
	}
	return out, nil
}

// Table renders the ablation comparison.
func (r AblationResult) Table() string {
	var b strings.Builder
	b.WriteString("Ablations — global adaptive heuristic, 20 msg/s, both variabilities\n")
	b.WriteString(fmt.Sprintf("%-40s %-6s %-5s %-6s %-9s %s\n", "variant", "omega", "met", "gamma", "cost($)", "theta"))
	for _, row := range r.Rows {
		met := "yes"
		if !row.Meets {
			met = "NO"
		}
		fmt.Fprintf(&b, "%-40s %.3f  %-4s  %.3f  %8.2f  %+.4f\n",
			row.Variant, row.Summary.MeanOmega, met, row.Summary.MeanGamma,
			row.Summary.TotalCostUSD, row.Theta)
	}
	return b.String()
}
