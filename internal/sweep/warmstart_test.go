package sweep

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// warmSpecDoc builds a grid with one cold axis (rate) and one warm axis
// (acquisition faults gated behind a fault-free lead-in of exactly the
// prefix length, so the warm patches are prefix-neutral by construction).
// With withWarm false the same grid is returned without any warm-start
// machinery — the cold control used by the equality test below.
func warmSpecDoc(withWarm bool) string {
	warmFlag, warmBlock := "", ""
	if withWarm {
		warmFlag = `"warm": true,`
		warmBlock = `"warmStart": {"prefixSec": 120},`
	}
	return fmt.Sprintf(`{
	  "name": "warm",
	  "base": %s,
	  "axes": [
	    {"name": "rate", "values": [
	      {"label": "low",  "patch": {"rate": {"mean": 3}}},
	      {"label": "high", "patch": {"rate": {"mean": 6}}}
	    ]},
	    {"name": "faults", %s "values": [
	      {"label": "off", "patch": {"control": {"faultFreeSec": 120}}},
	      {"label": "on",  "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}}
	    ]}
	  ],
	  %s
	  "seeds": [1, 2]
	}`, testBase, warmFlag, warmBlock)
}

func TestWarmStartExpandSharesPrefixKeys(t *testing.T) {
	spec, err := ParseSpec([]byte(warmSpecDoc(true)))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("jobs = %d, want 8", len(jobs))
	}
	// Jobs differing only along the warm axis converge on one prefix; the
	// cold axis and the seed both split prefixes.
	prefixOf := map[string]string{}
	for _, j := range jobs {
		if j.Prefix == nil || j.PrefixKey == "" {
			t.Fatalf("job %s has no resolved prefix", j.ID)
		}
		if j.PrefixKey == j.Key {
			t.Fatalf("job %s: prefix key equals job key (warm patch not dropped?)", j.ID)
		}
		coord := fmt.Sprintf("rate=%s/seed=%d", axisLabel(t, j.ID, "rate"), j.Seed)
		if prev, ok := prefixOf[coord]; ok {
			if prev != j.PrefixKey {
				t.Fatalf("%s: prefix keys diverge within a warm group", coord)
			}
		} else {
			prefixOf[coord] = j.PrefixKey
		}
	}
	if len(prefixOf) != 4 {
		t.Fatalf("distinct prefixes = %d, want 4 (rate x seed)", len(prefixOf))
	}
	seen := map[string]bool{}
	for _, k := range prefixOf {
		if seen[k] {
			t.Fatal("distinct warm groups share a prefix key")
		}
		seen[k] = true
	}
}

// axisLabel extracts an axis value label from a job ID like
// "rate=low/faults=on/seed=1".
func axisLabel(t *testing.T, id, axis string) string {
	t.Helper()
	for _, part := range bytes.Split([]byte(id), []byte("/")) {
		if kv := bytes.SplitN(part, []byte("="), 2); string(kv[0]) == axis {
			return string(kv[1])
		}
	}
	t.Fatalf("job %q has no %s coordinate", id, axis)
	return ""
}

// TestWarmStartMatchesColdRun is the warm-start acceptance criterion: a
// campaign executed with shared prefix checkpoints reports fork hits and
// produces per-job results and an aggregate CSV identical to the same grid
// simulated cold from zero.
func TestWarmStartMatchesColdRun(t *testing.T) {
	warmSpec, err := ParseSpec([]byte(warmSpecDoc(true)))
	if err != nil {
		t.Fatal(err)
	}
	coldSpec, err := ParseSpec([]byte(warmSpecDoc(false)))
	if err != nil {
		t.Fatal(err)
	}

	warm, err := (&Engine{Workers: 4}).Run(context.Background(), warmSpec)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := (&Engine{Workers: 4}).Run(context.Background(), coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total != 8 || warm.Executed != 8 || warm.Errors != 0 {
		t.Fatalf("warm report = %+v", warm)
	}
	if warm.ForkHits < 1 {
		t.Fatalf("warm run forked %d jobs, want >= 1", warm.ForkHits)
	}
	if cold.ForkHits != 0 {
		t.Fatalf("cold run reports %d fork hits", cold.ForkHits)
	}

	coldByID := map[string]Result{}
	for _, r := range cold.Results {
		coldByID[r.JobID] = r
	}
	forked := 0
	for _, w := range warm.Results {
		c, ok := coldByID[w.JobID]
		if !ok {
			t.Fatalf("warm job %s missing from cold run", w.JobID)
		}
		if w.Forked {
			forked++
		}
		// Everything except the Forked flag must agree.
		wc := w
		wc.Forked, wc.Cached = c.Forked, c.Cached
		if !reflect.DeepEqual(wc, c) {
			t.Errorf("job %s diverged:\nwarm %+v\ncold %+v", w.JobID, w, c)
		}
	}
	if forked != warm.ForkHits {
		t.Fatalf("forked results %d != reported fork hits %d", forked, warm.ForkHits)
	}

	var warmCSV, coldCSV bytes.Buffer
	if err := warm.WriteCSV(&warmCSV); err != nil {
		t.Fatal(err)
	}
	if err := cold.WriteCSV(&coldCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmCSV.Bytes(), coldCSV.Bytes()) {
		t.Fatalf("aggregate CSV diverged:\n%s\n---\n%s", warmCSV.String(), coldCSV.String())
	}
}

// TestWarmStartJournalRecordsForks: journaled warm results keep the Forked
// flag, and a resumed campaign serves them as cache hits without re-forking.
func TestWarmStartJournalRecordsForks(t *testing.T) {
	spec, err := ParseSpec([]byte(warmSpecDoc(true)))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/journal.jsonl"
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWith(context.Background(), 2, spec, RunOpts{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ForkHits < 1 {
		t.Fatalf("fork hits = %d", rep.ForkHits)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep2, err := runWith(context.Background(), 2, spec, RunOpts{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != 8 || rep2.Executed != 0 || rep2.ForkHits != 0 {
		t.Fatalf("resume report = %+v", rep2)
	}
	forked := 0
	for _, r := range rep2.Results {
		if r.Forked {
			forked++
		}
	}
	if forked != rep.ForkHits {
		t.Fatalf("journal kept %d forked flags, campaign forked %d", forked, rep.ForkHits)
	}
}

func TestWarmStartValidation(t *testing.T) {
	bad := []string{
		// Warm axis without a warmStart block.
		`{"name": "x", "base": ` + testBase + `,
		  "axes": [{"name": "a", "warm": true, "values": [{"label": "v", "patch": {}}]}]}`,
		// Prefix not a multiple of the interval.
		`{"name": "x", "base": ` + testBase + `, "warmStart": {"prefixSec": 90}}`,
		// Prefix at/after the horizon (0.1 h = 360 s).
		`{"name": "x", "base": ` + testBase + `, "warmStart": {"prefixSec": 360}}`,
		// Non-positive prefix.
		`{"name": "x", "base": ` + testBase + `, "warmStart": {"prefixSec": 0}}`,
	}
	for i, doc := range bad {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("case %d: bad warm-start spec accepted", i)
		}
	}
}

// TestForkMemoCheckpointsEachGroupOnce runs every job of a warm grid
// through one ForkMemo at once: the memo keeps one prefix checkpoint per
// fork group, shared by the group's jobs, and a job given no fork second
// runs cold.
func TestForkMemoCheckpointsEachGroupOnce(t *testing.T) {
	spec, err := ParseSpec([]byte(warmSpecDoc(true)))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var memo ForkMemo
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _ = memo.Execute(context.Background(), jobs[i], spec.WarmStart.PrefixSec, nil, nil, i)
		}()
	}
	wg.Wait()
	groups := map[string]bool{}
	for i, r := range results {
		groups[jobs[i].PrefixKey] = true
		if r.Error != "" || !r.Forked {
			t.Fatalf("job %s: forked=%v error=%q", r.JobID, r.Forked, r.Error)
		}
	}
	if len(memo.prefixes) != len(groups) || len(groups) != 4 {
		t.Fatalf("memo keeps %d prefix checkpoints for %d fork groups, want 4", len(memo.prefixes), len(groups))
	}
	for key, p := range memo.prefixes {
		if p.snap == nil {
			t.Fatalf("group %s has no checkpoint", key)
		}
	}
	if r, _ := memo.Execute(context.Background(), jobs[0], 0, nil, nil, 0); r.Forked {
		t.Fatal("a job with no fork second forked")
	}
}
