package sweep

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// sharedInfraSpecDoc is a warm-start grid whose jobs replay two infra
// configs: each is asked for by four jobs and two warm prefixes.
const sharedInfraSpecDoc = `{
  "name": "shared-infra",
  "base": ` + testBase + `,
  "axes": [
    {"name": "infra", "values": [
      {"label": "a", "patch": {"infra": {"kind": "replayed", "seed": 5}}},
      {"label": "b", "patch": {"infra": {"kind": "replayed", "seed": 6, "cpu": {"mean": 0.7, "theta": 0.01, "sigma": 0.004, "diurnalAmp": 0.05, "min": 0.4, "max": 1, "periodSec": 30}}}}
    ]},
    {"name": "faults", "warm": true, "values": [
      {"label": "off", "patch": {"control": {"faultFreeSec": 120}}},
      {"label": "on",  "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}}
    ]}
  ],
  "warmStart": {"prefixSec": 120},
  "seeds": [1, 2]
}`

// TestRunSharedPoolsMatchesColdJobs: a campaign whose jobs and warm
// prefixes share replayed trace pools gives exactly the results of each job
// built and run cold, alone.
func TestRunSharedPoolsMatchesColdJobs(t *testing.T) {
	spec, err := ParseSpec([]byte(sharedInfraSpecDoc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Engine{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 8 || rep.Executed != 8 || rep.Errors != 0 || rep.ForkHits != 8 {
		t.Fatalf("report = total %d executed %d errors %d forks %d, want 8/8/0/8",
			rep.Total, rep.Executed, rep.Errors, rep.ForkHits)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		if job.Memo != nil {
			t.Fatalf("Expand set %s's memo", job.ID)
		}
		cold, canceled := ExecuteJob(context.Background(), job, nil, nil, nil, i)
		if canceled {
			t.Fatalf("%s canceled", job.ID)
		}
		got := rep.Results[i]
		got.Forked = false // a forked job is otherwise identical to its cold run
		if !reflect.DeepEqual(got, cold) {
			t.Fatalf("%s: campaign result\n%+v\ncold result\n%+v", job.ID, got, cold)
		}
	}
}

// TestRunGeneratesEachPoolOnce: the campaign above generates two pools for
// its eight jobs and four prefixes, not twelve. A default pool allocates
// about 1.1 MB, and the rest of the campaign far less.
func TestRunGeneratesEachPoolOnce(t *testing.T) {
	spec, err := ParseSpec([]byte(sharedInfraSpecDoc))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (&Engine{Workers: 2}).Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const poolMB = 24 * 5760 * 8.0 / (1 << 20)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("campaign allocated %.2f MB (a pool is %.2f MB)", mb, poolMB)
	if mb > 6*poolMB {
		t.Fatalf("campaign allocated %.1f MB, more than 6 pools: are jobs generating their own?", mb)
	}
}

// sharedWalkSpecDoc is a warm-start grid whose 32 jobs draw 8 random walks:
// wavewalk and randomwalk inputs at two means and two walk seeds, each
// asked for by four jobs and two warm prefixes.
const sharedWalkSpecDoc = `{
  "name": "shared-walks",
  "base": ` + testBase + `,
  "axes": [
    {"name": "input", "values": [
      {"label": "wavewalk", "patch": {"rate": {"kind": "wavewalk"}}},
      {"label": "randomwalk", "patch": {"rate": {"kind": "randomwalk"}}}
    ]},
    {"name": "mean", "values": [
      {"label": "4", "patch": {"rate": {"mean": 4}}},
      {"label": "9", "patch": {"rate": {"mean": 9}}}
    ]},
    {"name": "walk", "values": [
      {"label": "s3", "patch": {"rate": {"seed": 3}}},
      {"label": "s4", "patch": {"rate": {"seed": 4}}}
    ]},
    {"name": "faults", "warm": true, "values": [
      {"label": "off", "patch": {"control": {"faultFreeSec": 120}}},
      {"label": "on",  "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}}
    ]}
  ],
  "warmStart": {"prefixSec": 120},
  "seeds": [1, 2]
}`

// TestRunSharedWalksMatchesColdJobs: a two-worker warm-start campaign whose
// jobs and prefixes share their random walks through the campaign memo
// gives exactly the result of each job run cold and alone, which draws its
// own walk. The same jobs run through one ForkMemo from two goroutines, as
// a fabric worker runs its campaign, generate each of the 8 distinct walks
// once.
func TestRunSharedWalksMatchesColdJobs(t *testing.T) {
	spec, err := ParseSpec([]byte(sharedWalkSpecDoc))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := (&Engine{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 32 || rep.Executed != 32 || rep.Errors != 0 || rep.ForkHits != 32 {
		t.Fatalf("report = total %d executed %d errors %d forks %d, want 32/32/0/32",
			rep.Total, rep.Executed, rep.Errors, rep.ForkHits)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]Result, len(jobs))
	for i, job := range jobs {
		var canceled bool
		if cold[i], canceled = ExecuteJob(context.Background(), job, nil, nil, nil, i); canceled {
			t.Fatalf("%s canceled", job.ID)
		}
		got := rep.Results[i]
		got.Forked = false // a forked job is otherwise identical to its cold run
		if !reflect.DeepEqual(got, cold[i]) {
			t.Fatalf("%s: campaign result\n%+v\ncold result\n%+v", job.ID, got, cold[i])
		}
	}

	var memo ForkMemo
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += 2 {
				got, _ := memo.Execute(context.Background(), jobs[i], spec.WarmStart.PrefixSec, nil, nil, i)
				if got.Forked = false; !reflect.DeepEqual(got, cold[i]) {
					t.Errorf("%s through one ForkMemo: %+v, cold %+v", jobs[i].ID, got, cold[i])
				}
			}
		}(w)
	}
	wg.Wait()
	// The memo keeps one prefix per distinct walk it generated, under a
	// sync.Once each.
	if n := reflect.ValueOf(&memo.memo).Elem().FieldByName("walks").Len(); n != 8 {
		t.Fatalf("the campaign generated %d walks, want 8", n)
	}
}
