package sweep

import (
	"context"
	"fmt"
	"testing"

	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
)

// warmTenantSpecDoc is a warm-start grid over the two-tenant scenario, so
// forked jobs restore per-tenant series too.
const warmTenantSpecDoc = `{
  "name": "warm-tenants",
  "base": ` + tenantBase + `,
  "axes": [
    {"name": "faults", "warm": true, "values": [
      {"label": "off", "patch": {"control": {"faultFreeSec": 120}}},
      {"label": "on",  "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}}
    ]}
  ],
  "warmStart": {"prefixSec": 120},
  "seeds": [1, 2]
}`

// rowsKeepingResult runs a job the way sweep jobs ran before they became
// summary-only: a rows-keeping engine built from the lowered Config, or
// restored from snap for a fork, summarized at the end of RunContext.
func rowsKeepingResult(t *testing.T, job Job, snap *state.Snapshot) Result {
	t.Helper()
	res := Result{JobID: job.ID, Key: job.Key, Group: job.Group, Seed: job.Seed}
	built, err := job.Scenario.Lower(job.Memo)
	if err != nil {
		t.Fatal(err)
	}
	var eng *sim.Engine
	if snap != nil {
		eng, err = sim.Restore(snap, built.Config)
		res.Forked = true
	} else {
		eng, err = sim.NewEngine(built.Config)
	}
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.RunContext(context.Background(), built.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Collector().Len(); n != sum.Intervals {
		t.Fatalf("%s: the rows-keeping engine holds %d rows for %d intervals", job.ID, n, sum.Intervals)
	}
	res.Violations = eng.InvariantViolations()
	res.SetSummary(built, sum)
	return res
}

// TestExecuteJobMatchesRowsKeepingRuns: ExecuteJob's one summary-only
// engine per job reports, bit for bit, what a rows-keeping engine reports,
// for every job of a warm, a cold and a warm multi-tenant spec, forked jobs
// included.
func TestExecuteJobMatchesRowsKeepingRuns(t *testing.T) {
	for _, doc := range []string{warmSpecDoc(true), acceptSpecDoc, warmTenantSpecDoc} {
		spec, err := ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		memo := new(scenario.Memo)
		prefixes := map[string]*state.Snapshot{}
		forks := 0
		for i, job := range jobs {
			job.Memo = memo
			var snap *state.Snapshot
			if job.Prefix != nil {
				if prefixes[job.PrefixKey] == nil {
					prefixes[job.PrefixKey] = runPrefix(context.Background(), job.Prefix, spec.WarmStart.PrefixSec, memo)
				}
				if snap = prefixes[job.PrefixKey]; snap == nil {
					t.Fatalf("%s: prefix run failed", job.ID)
				}
			}
			got, canceled := ExecuteJob(context.Background(), job, snap, nil, nil, i)
			if canceled || got.Error != "" {
				t.Fatalf("%s: canceled %v, error %q", job.ID, canceled, got.Error)
			}
			if got.Forked {
				forks++
			}
			if len(got.Tenants) != len(job.Scenario.Tenants) {
				t.Fatalf("%s: %d tenant results for %d tenants", job.ID, len(got.Tenants), len(job.Scenario.Tenants))
			}
			// %#v prints every float in its shortest exact form, so equal
			// strings mean equal bits, the sign of zero included.
			if want := rowsKeepingResult(t, job, snap); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("%s %s:\n got %#v\nwant %#v", spec.Name, job.ID, got, want)
			}
		}
		if wantForks := map[bool]int{true: len(jobs), false: 0}[spec.WarmStart != nil]; forks != wantForks {
			t.Fatalf("%s: %d of %d jobs forked, want %d", spec.Name, forks, len(jobs), wantForks)
		}
	}
}
