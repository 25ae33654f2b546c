package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
)

// gridConfig keeps grid tests fast: tiny horizon, two rates.
func gridConfig() Config {
	c := Quick()
	c.HorizonSec = 600
	c.Rates = []float64{3, 8}
	return c
}

func TestNamedGridsExpand(t *testing.T) {
	c := gridConfig()
	for _, name := range GridNames() {
		spec, err := NamedGrid(name, c, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s expand: %v", name, err)
		}
		if len(jobs) == 0 {
			t.Fatalf("%s: no jobs", name)
		}
		// Replica structure: every group has exactly 2 seeds.
		perGroup := map[string]int{}
		for _, j := range jobs {
			perGroup[j.Group]++
		}
		for g, n := range perGroup {
			if n != 2 {
				t.Fatalf("%s group %s has %d replicas", name, g, n)
			}
		}
	}
	if _, err := NamedGrid("ghost", c, 1); err == nil {
		t.Fatal("unknown grid accepted")
	}
}

// coordinate returns the label of axis in a job group "axis=label/...".
func coordinate(group, axis string) (string, bool) {
	for _, c := range strings.Split(group, "/") {
		if name, label, _ := strings.Cut(c, "="); name == axis {
			return label, true
		}
	}
	return "", false
}

// TestFigureGridPolicyLabels: every job of the figure grids lowers to a
// scheduler whose Name() is the job's policy label, and a job on a var axis
// enables the variability its label names, so the figure rows carry the
// labels of the runs they report.
func TestFigureGridPolicyLabels(t *testing.T) {
	c := gridConfig()
	memo := new(scenario.Memo)
	for _, name := range []string{"fig4", "fig5", "fig67", "fig8"} {
		spec, err := NamedGrid(name, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			policy, ok := coordinate(j.Group, "policy")
			if !ok {
				t.Fatalf("%s job %s has no policy coordinate", name, j.ID)
			}
			b, err := j.Scenario.Lower(memo)
			if err != nil {
				t.Fatalf("%s job %s: %v", name, j.ID, err)
			}
			if got := b.Scheduler.Name(); got != policy {
				t.Errorf("%s job %s: scheduler %q, label %q", name, j.ID, got, policy)
			}
			if v, ok := coordinate(j.Group, "var"); ok && variabilityOf(j.Scenario) != v {
				t.Errorf("%s job %s: scenario enables %q variability", name, j.ID, variabilityOf(j.Scenario))
			}
		}
	}
}

// TestNamedGridsRun executes a trimmed corner of every named grid end to
// end through the sweep engine, at toy size. Grid jobs run under the strict
// invariant checker, so a conservation bug fails its job.
func TestNamedGridsRun(t *testing.T) {
	cases := map[string]struct {
		// keep lists the labels kept on an axis; every other axis keeps
		// its first value.
		keep  map[string][]string
		jobs  int
		check func(t *testing.T, rep *sweep.Report)
	}{
		"fig4": {keep: map[string][]string{"policy": {"global-static"}, "var": {"both"}}, jobs: 1},
		// Bruteforce is left out to keep the test fast.
		"fig5": {keep: map[string][]string{"policy": {"local-static", "global-static"}}, jobs: 2,
			check: func(t *testing.T, rep *sweep.Report) {
				for _, row := range rep.Rows {
					if !(row.Omega.Mean > 0 && row.Omega.Mean <= 1) {
						t.Fatalf("row %s omega = %v", row.Group, row.Omega.Mean)
					}
					if row.CostUSD.Mean <= 0 {
						t.Fatalf("row %s cost = %v", row.Group, row.CostUSD.Mean)
					}
				}
			}},
		"fig67": {keep: map[string][]string{"var": {"data"}}, jobs: 1},
		"fig8":  {keep: map[string][]string{"policy": {"global-nodyn"}}, jobs: 1},
		// The control block survives the merge-patch path into a running
		// engine.
		"faults": {keep: map[string][]string{"policy": {"global"}, "faults": {"boot"}}, jobs: 1},
		// The cell where arbitration bites: tenants survive the merge-patch
		// path, and per-tenant results come back through the sweep engine.
		"fairness": {keep: map[string][]string{"priority": {"tiered"}, "floor": {"strict"}, "fleet": {"scarce"}}, jobs: 1,
			check: func(t *testing.T, rep *sweep.Report) {
				res := rep.Results[0]
				if len(res.Tenants) != 2 || res.Tenants[0].Name != "front" || res.Tenants[1].Name != "batch" {
					t.Fatalf("tenants = %+v", res.Tenants)
				}
				if len(rep.Rows) != 1 || len(rep.Rows[0].Tenants) != 2 {
					t.Fatalf("aggregate rows = %+v", rep.Rows)
				}
			}},
	}
	c := gridConfig()
	c.Rates = []float64{3}
	for _, name := range GridNames() {
		tc, ok := cases[name]
		if !ok {
			t.Errorf("grid %s has no case", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			spec, err := NamedGrid(name, c, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, ax := range spec.Axes {
				kept := ax.Values[:1]
				if labels, ok := tc.keep[ax.Name]; ok {
					kept = nil
					for _, v := range ax.Values {
						if slices.Contains(labels, v.Label) {
							kept = append(kept, v)
						}
					}
				}
				spec.Axes[i].Values = kept
			}
			base, err := scenario.ParseBytes(spec.Base)
			if err != nil {
				t.Fatal(err)
			}
			if ck := base.Check; ck == nil || !ck.Enabled || !ck.Strict {
				t.Fatalf("base check = %+v, want the strict checker", ck)
			}
			rep, err := (&sweep.Engine{Workers: 2}).Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Errors != 0 || rep.Total != tc.jobs {
				t.Fatalf("report = %+v", rep)
			}
			for _, res := range rep.Results {
				if want := int(c.HorizonSec / c.IntervalSec); res.Intervals != want {
					t.Fatalf("job %s ran %d intervals, want %d", res.JobID, res.Intervals, want)
				}
			}
			if tc.check != nil {
				tc.check(t, rep)
			}
		})
	}
}
