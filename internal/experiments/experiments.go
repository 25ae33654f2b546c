// Package experiments reproduces the paper's evaluation (§8). Every run is
// a scenario: the Fig. 1 dataflow scaled to the evaluation's alternate
// ladders, AWS-like VM classes, FutureGrid-calibrated performance traces,
// and the paper's data-rate profiles, resolved from one base document and
// merge patches (grids.go). Figs. 4-8 run as sweep grids on the campaign
// engine; the extension studies lower their scenarios and run them with
// what the schema does not carry. cmd/dfbench prints the rows and series
// the paper reports; EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"

	"dynamicdf/internal/rates"
	"dynamicdf/internal/sweep"
)

// Config holds the evaluation-wide knobs; Default() mirrors §8.
type Config struct {
	// HorizonSec is the optimization period per run. The paper's dollar
	// figures use 10 hours; shorter horizons keep tests fast.
	HorizonSec int64
	// IntervalSec is the adaptation interval.
	IntervalSec int64
	// Seed drives every stochastic input deterministically.
	Seed int64
	// Rates is the data-rate sweep (msg/s).
	Rates []float64
}

// Default returns the paper's evaluation settings.
func Default() Config {
	return Config{
		HorizonSec:  10 * 3600,
		IntervalSec: 60,
		Seed:        42,
		Rates:       rates.PaperDataRates(),
	}
}

// Quick returns a reduced configuration for tests and smoke runs: shorter
// horizon, sparser rate sweep.
func Quick() Config {
	c := Default()
	c.HorizonSec = 2 * 3600
	c.Rates = []float64{2, 10, 35}
	return c
}

// RunResult is one row of the evaluation: a policy's run at one rate under
// one variability, with the outcome its sweep job reports.
type RunResult struct {
	Policy string
	Rate   float64
	// Scenario names the run's variability: none, data, infra or both.
	Scenario string
	sweep.Result
}

// String renders the run as one table row.
func (r RunResult) String() string {
	met := "MET "
	if !r.MeetsOmega {
		met = "MISS"
	}
	return fmt.Sprintf("%-22s rate=%4.0f var=%-5s omega=%.3f %s gamma=%.3f cost=$%7.2f theta=%+.4f",
		r.Policy, r.Rate, r.Scenario, r.Omega, met, r.Gamma, r.CostUSD, r.Theta)
}
