package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dynamicdf/internal/sweep"
)

// TestLedgerResumesAlikeOnPoolAndFabric resumes one warm-start campaign
// from the same partly filled journal on the in-process pool and on a hub
// with one worker over HTTP. Both runners keep their books in a
// sweep.Ledger, so they must agree on everything it decides: what the
// journal serves, which groups fork, the counters and the report. The
// journal leaves one fork group a single pending member, which runs cold.
func TestLedgerResumesAlikeOnPoolAndFabric(t *testing.T) {
	spec := parseSpec(t, fmt.Sprintf(`{
	  "name": "resume",
	  "base": %s,
	  "axes": [{"name": "faults", "warm": true, "values": [
	    {"label": "off",  "patch": {"control": {"faultFreeSec": 120}}},
	    {"label": "rare", "patch": {"control": {"acquireFailProb": 0.2, "faultFreeSec": 120}}},
	    {"label": "on",   "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}}
	  ]}],
	  "warmStart": {"prefixSec": 120},
	  "seeds": [1, 2, 3]
	}`, testBase))
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()

	// A full run supplies the journal lines. Each seed is one fork group of
	// three jobs; the partial journal holds two of seed 2's and one of seed
	// 3's, so seed 2's last job is a singleton.
	full, err := sweep.OpenJournal(filepath.Join(dir, "full.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if _, err := (&sweep.Engine{Workers: 2}).RunCampaign(ctx, spec, jobs, sweep.RunOpts{Journal: full}); err != nil {
		t.Fatal(err)
	}
	journaled := map[int64]int{2: 2, 3: 1}
	var partial []byte
	pendingPerPrefix := map[string]int{}
	for _, j := range jobs {
		if journaled[j.Seed] > 0 {
			journaled[j.Seed]--
			r, ok := full.Lookup(j.Key)
			if !ok {
				t.Fatalf("full run did not journal %s", j.ID)
			}
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			partial = append(append(partial, line...), '\n')
			continue
		}
		pendingPerPrefix[j.PrefixKey]++
	}
	wantForks, singletons := 0, 0
	for _, n := range pendingPerPrefix {
		if n >= 2 {
			wantForks += n
		} else {
			singletons++
		}
	}
	if wantForks != 5 || singletons != 1 {
		t.Fatalf("the journal leaves %d forking jobs and %d singletons, want 5 and 1", wantForks, singletons)
	}
	resumeJournal := func(name string) *sweep.Journal {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, partial, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := sweep.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		return j
	}

	pool, err := (&sweep.Engine{Workers: 2}).RunCampaign(ctx, spec, jobs, sweep.RunOpts{Journal: resumeJournal("pool.jsonl")})
	if err != nil {
		t.Fatal(err)
	}

	hub := NewHub(Config{TickEvery: 20 * time.Millisecond})
	ts := httptest.NewServer(hub.Handler())
	defer ts.Close()
	wctx, stop := context.WithCancel(ctx)
	w := NewWorker(WorkerConfig{ID: "solo", Client: NewClient(ts.URL), Slots: 2,
		PollInterval: 10 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- w.Run(wctx) }()
	defer func() {
		stop()
		<-done
	}()
	fab, err := hub.RunCampaign(ctx, spec, jobs, sweep.RunOpts{Journal: resumeJournal("fabric.jsonl")})
	if err != nil {
		t.Fatal(err)
	}

	prefixOf := map[string]string{}
	for _, j := range jobs {
		prefixOf[j.Key] = j.PrefixKey
	}
	for _, run := range []struct {
		name string
		rep  *sweep.Report
	}{{"pool", pool}, {"fabric", fab}} {
		rep := run.rep
		if rep.CacheHits != 3 || rep.Executed != 6 || rep.Missing != 0 || rep.ForkHits != wantForks {
			t.Fatalf("%s: cacheHits=%d executed=%d missing=%d forkHits=%d, want 3/6/0/%d",
				run.name, rep.CacheHits, rep.Executed, rep.Missing, rep.ForkHits, wantForks)
		}
		for _, r := range rep.Results {
			if !r.Cached && pendingPerPrefix[prefixOf[r.Key]] == 1 && r.Forked {
				t.Fatalf("%s: singleton %s forked a prefix", run.name, r.JobID)
			}
		}
	}
	if !reflect.DeepEqual(pool.Results, fab.Results) {
		t.Fatalf("results differ:\n pool   %+v\n fabric %+v", pool.Results, fab.Results)
	}
	if !reflect.DeepEqual(pool.Rows, fab.Rows) {
		t.Fatalf("rows differ:\n pool   %+v\n fabric %+v", pool.Rows, fab.Rows)
	}
	var poolCSV, fabCSV bytes.Buffer
	if err := pool.WriteCSV(&poolCSV); err != nil {
		t.Fatal(err)
	}
	if err := fab.WriteCSV(&fabCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(poolCSV.Bytes(), fabCSV.Bytes()) {
		t.Fatalf("aggregate CSV differs:\n--- pool ---\n%s--- fabric ---\n%s", poolCSV.Bytes(), fabCSV.Bytes())
	}
}
