package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dynamicdf/internal/sweep"
)

// replayedWarmSpec is a warm-start grid on a replayed infrastructure: four
// jobs in two fork groups, all replaying one trace pool.
func replayedWarmSpec(t *testing.T, name string, infraSeed int64) (*sweep.Spec, []byte) {
	t.Helper()
	doc := []byte(fmt.Sprintf(`{
	  "name": %q,
	  "base": %s,
	  "axes": [
	    {"name": "infra", "values": [{"label": "replayed", "patch": {"infra": {"kind": "replayed", "seed": %d}}}]},
	    {"name": "faults", "warm": true, "values": [
	      {"label": "off", "patch": {"control": {"faultFreeSec": 120}}},
	      {"label": "on",  "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}}
	    ]}
	  ],
	  "warmStart": {"prefixSec": 120},
	  "seeds": [1, 2]
	}`, name, testBase, infraSeed))
	return parseSpec(t, string(doc)), doc
}

// TestWorkerKeepsOnlyCurrentCampaign runs campaign A and then campaign B on
// one long-lived worker: once B's leases arrive the worker holds no state
// of A (neither its trace pools nor its prefix checkpoints), and B's
// aggregate CSV is byte-equal to the single-pool run.
func TestWorkerKeepsOnlyCurrentCampaign(t *testing.T) {
	hub := NewHub(Config{TickEvery: 20 * time.Millisecond})
	srv := sweep.NewServer(sweep.ServerConfig{Runner: hub, JournalDir: t.TempDir()})
	mux := http.NewServeMux()
	mux.Handle("/fabric/", hub.Handler())
	mux.Handle("/", srv.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := NewWorker(WorkerConfig{ID: "long-lived", Client: NewClient(ts.URL), Slots: 2,
		PollInterval: 10 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	// held waits until the worker has left every lease (it acks a result
	// before it leaves the lease's campaign) and returns its campaigns.
	held := func() map[string]*campaignState {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			w.mu.Lock()
			out, active := map[string]*campaignState{}, 0
			for id, c := range w.campaigns {
				out[id] = c
				active += c.active
			}
			w.mu.Unlock()
			if active == 0 {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatalf("the worker still counts %d leases in process", active)
			}
		}
	}

	run := func(name string, infraSeed int64) {
		t.Helper()
		spec, doc := replayedWarmSpec(t, name, infraSeed)
		id := submitSpec(t, ts.URL, doc)
		if st := awaitState(t, ts.URL, id, 40*time.Second); st.State != "done" {
			t.Fatalf("campaign %s ended %q (error %q)", name, st.State, st.Error)
		}
		if rep := fetchReport(t, ts.URL, id); rep.Executed != 4 || rep.Errors != 0 || rep.ForkHits != 4 {
			t.Fatalf("campaign %s: executed=%d errors=%d forks=%d, want 4/0/4", name, rep.Executed, rep.Errors, rep.ForkHits)
		}
		base, err := (&sweep.Engine{Workers: 2}).Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := base.WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if got := fetchCSV(t, ts.URL, id); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("campaign %s CSV diverged from the single-pool run:\n--- pool ---\n%s\n--- fabric ---\n%s", name, want.Bytes(), got)
		}
	}

	run("a", 5)
	afterA := held()
	if len(afterA) != 1 {
		t.Fatalf("after campaign a the worker holds %d campaigns, want 1", len(afterA))
	}
	var stateA *campaignState
	for _, c := range afterA {
		stateA = c
	}

	run("b", 6)
	afterB := held()
	if len(afterB) != 1 {
		t.Fatalf("after campaign b the worker holds %d campaigns, want 1", len(afterB))
	}
	for id, c := range afterB {
		if _, ok := afterA[id]; ok || c == stateA {
			t.Fatal("the worker still holds campaign a's state")
		}
	}
}
