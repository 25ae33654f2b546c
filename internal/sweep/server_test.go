package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// twoJobSpec is the smoke sweep: 1 grid point x 2 seeds.
func twoJobSpec() string {
	return fmt.Sprintf(`{
	  "name": "smoke",
	  "base": %s,
	  "axes": [{"name": "policy", "values": [{"label": "global", "patch": {"policy": {"kind": "global"}}}]}],
	  "seeds": [1, 2]
	}`, testBase)
}

func waitDone(t *testing.T, ts *httptest.Server, id string) status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State != "running" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return status{}
}

func TestServerSubmitPollResults(t *testing.T) {
	srv := NewServer(ServerConfig{Workers: 2, JournalDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(twoJobSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var sub struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" || !sub.Created {
		t.Fatalf("submit = %+v", sub)
	}

	st := waitDone(t, ts, sub.ID)
	if st.State != "done" || st.Progress.Done != 2 || st.Progress.Errors != 0 {
		t.Fatalf("status = %+v", st)
	}

	// Aggregated CSV.
	resp, err = http.Get(ts.URL + "/sweeps/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	resp.Body.Close()
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "group,seeds") {
		t.Fatalf("csv = %q", lines)
	}
	if !strings.HasPrefix(lines[1], "policy=global,2,") {
		t.Fatalf("row = %q", lines[1])
	}

	// JSON form carries the full report.
	resp, err = http.Get(ts.URL + "/sweeps/" + sub.ID + "/results?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Total != 2 || len(rep.Results) != 2 || len(rep.Rows) != 1 {
		t.Fatalf("report = %+v", rep)
	}

	// Idempotent resubmission attaches to the done campaign.
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(twoJobSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status = %d", resp.StatusCode)
	}
	var again struct {
		ID      string `json:"id"`
		Created bool   `json:"created"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if again.ID != sub.ID || again.Created {
		t.Fatalf("resubmit = %+v", again)
	}
}

func TestServerJournalResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	run := func() (string, Report) {
		srv := NewServer(ServerConfig{Workers: 2, JournalDir: dir})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(twoJobSpec()))
		if err != nil {
			t.Fatal(err)
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitDone(t, ts, sub.ID)
		resp, err = http.Get(ts.URL + "/sweeps/" + sub.ID + "/results?format=json")
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sub.ID, rep
	}

	id1, rep1 := run()
	id2, rep2 := run() // fresh server, same journal dir

	if id1 != id2 {
		t.Fatalf("content-addressed ids differ: %s vs %s", id1, id2)
	}
	if rep1.CacheHits != 0 || rep1.Executed != 2 {
		t.Fatalf("first run: %+v", rep1)
	}
	if rep2.CacheHits != 2 || rep2.Executed != 0 {
		t.Fatalf("restarted run did not resume from journal: hits=%d executed=%d",
			rep2.CacheHits, rep2.Executed)
	}
}

func TestServerWatchStreams(t *testing.T) {
	srv := NewServer(ServerConfig{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(twoJobSpec()))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	watch, err := http.Get(ts.URL + "/sweeps/" + sub.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	sc := bufio.NewScanner(watch.Body)
	var last status
	n := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("watch line %q: %v", sc.Text(), err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("watch produced no lines")
	}
	if last.State != "done" || last.Progress.Done != 2 {
		t.Fatalf("final watch line = %+v", last)
	}
}

func TestServerErrors(t *testing.T) {
	srv := NewServer(ServerConfig{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Malformed spec.
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(`{"nope`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit = %d", resp.StatusCode)
	}
	// A valid spec with junk after it.
	junk := fmt.Sprintf(`{"name": "junk", "base": %s} junk`, testBase)
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(junk))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trailing data") {
		t.Fatalf("spec with trailing data = %d %s", resp.StatusCode, body)
	}
	// Unknown sweep.
	resp, err = http.Get(ts.URL + "/sweeps/deadbeef0000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep = %d", resp.StatusCode)
	}
	// Results for a running sweep conflict. Use a bigger spec so it is
	// still running when we poll.
	big := fmt.Sprintf(`{"name": "big", "base": %s, "seeds": [1,2,3,4,5,6,7,8]}`, testBase)
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/sweeps/" + sub.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("running results = %d", resp.StatusCode)
	}
	waitDone(t, ts, sub.ID)
}

// TestServerConcurrentSubmit races submissions of one spec. Submit expands
// outside the server lock, so the racers must still attach to a single
// campaign, exactly one of them starting it.
func TestServerConcurrentSubmit(t *testing.T) {
	srv := NewServer(ServerConfig{Workers: 1})
	defer srv.Shutdown(context.Background())
	spec, err := ParseSpec([]byte(twoJobSpec()))
	if err != nil {
		t.Fatal(err)
	}
	const racers = 8
	ids := make([]string, racers)
	created := make([]bool, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], created[i], errs[i] = srv.Submit(spec)
		}(i)
	}
	wg.Wait()
	starts := 0
	for i := range ids {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("submits named campaigns %q and %q", ids[0], ids[i])
		}
		if created[i] {
			starts++
		}
	}
	if starts != 1 {
		t.Fatalf("%d submits started the campaign, want 1", starts)
	}
	srv.mu.Lock()
	registered := len(srv.order)
	srv.mu.Unlock()
	if registered != 1 {
		t.Fatalf("%d campaigns registered, want 1", registered)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	srv := NewServer(ServerConfig{Workers: 1, JournalDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := fmt.Sprintf(`{"name": "drainme", "base": %s, "seeds": [1,2,3,4,5,6,7,8,9,10]}`, testBase)
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Post-shutdown submissions are refused.
	resp, err = http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(twoJobSpec()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit = %d", resp.StatusCode)
	}
}
