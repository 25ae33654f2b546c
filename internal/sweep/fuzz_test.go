package sweep_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
)

// FuzzSweepSpec runs the jobs an arbitrary spec document expands to: dfserve
// takes spec JSON over HTTP, and every merge-patched job scenario reaches
// the engine. Each job runs cut down the way FuzzCheckerConservation cuts a
// scenario, under the strict invariant checker, and the jobs share one
// trace pool memo as a campaign's do. A job that fails to build is fine; a
// recovered panic or a violated law is a crasher.
func FuzzSweepSpec(f *testing.F) {
	for _, doc := range append(sweep.TestSpecDocs, edgeSpecDocs...) {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := sweep.ParseSpec(data)
		if err != nil {
			return
		}
		n := max(len(s.Seeds), 1)
		for _, ax := range s.Axes {
			if n *= len(ax.Values); n > 8 {
				t.Skip("spec expands to more than 8 jobs")
			}
		}
		jobs, err := s.Expand()
		if err != nil {
			return
		}
		memo := new(scenario.Memo)
		for _, job := range jobs {
			sc, ok := clampFuzzScenario(job.Scenario)
			if !ok {
				continue
			}
			job.Scenario, job.Memo = sc, memo
			res, _ := sweep.ExecuteJob(context.Background(), job, nil, nil, nil, 0)
			if strings.HasPrefix(res.Error, "panic:") || res.Violations > 0 {
				t.Fatalf("job %s: %s (%d violations)\nspec: %s", job.ID, res.Error, res.Violations, data)
			}
		}
	})
}

// clampFuzzScenario returns a copy of a job's scenario that runs briefly
// under the strict checker: at most 0.2 h, rates in [0.1, 50], at most 64
// VMs. It reports false for a scenario that reads trace files or has more
// than 64 PEs. Job scenarios are read-only and share values with other
// jobs, so the tenants it clamps are a fresh slice.
func clampFuzzScenario(in *scenario.Scenario) (*scenario.Scenario, bool) {
	sc := *in
	if sc.Infra.Kind == "csvdir" || sc.Infra.Dir != "" {
		return nil, false
	}
	pes := len(sc.Graph.PEs)
	for _, tn := range sc.Tenants {
		pes += len(tn.Graph.PEs)
	}
	if pes > 64 {
		return nil, false
	}
	if sc.HorizonHours <= 0 || sc.HorizonHours > 0.2 {
		sc.HorizonHours = 0.1
	}
	if sc.IntervalSec < 0 {
		sc.IntervalSec = 0 // builder default
	}
	clampRate := func(r *scenario.RateSpec) {
		if r.Mean < 0.1 || r.Mean > 50 {
			r.Mean = 5
		}
	}
	clampRate(&sc.Rate)
	sc.Tenants = slices.Clone(sc.Tenants)
	for i := range sc.Tenants {
		clampRate(&sc.Tenants[i].Rate)
	}
	if sc.MaxVMs > 64 {
		sc.MaxVMs = 64
	}
	sc.Check = &scenario.CheckSpec{Enabled: true, Strict: true}
	return &sc, true
}
