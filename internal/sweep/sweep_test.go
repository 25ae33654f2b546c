package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// testBase is a small 2-PE scenario that runs in milliseconds.
const testBase = `{
  "graph": {
    "pes": [
      {"name": "src", "alternates": [{"name": "e", "value": 1, "cost": 0.2, "selectivity": 1}]},
      {"name": "work", "alternates": [
        {"name": "full", "value": 1.0, "cost": 1.0, "selectivity": 1},
        {"name": "lite", "value": 0.8, "cost": 0.5, "selectivity": 1}
      ]}
    ],
    "edges": [["src", "work"]]
  },
  "rate": {"kind": "constant", "mean": 5},
  "horizonHours": 0.1,
  "seed": 1
}`

// acceptSpecDoc is the acceptance grid: 3 scenario variants x 4 seeds.
const acceptSpecDoc = `{
	  "name": "accept",
	  "base": ` + testBase + `,
	  "axes": [
	    {"name": "rate", "values": [
	      {"label": "low",  "patch": {"rate": {"mean": 3}}},
	      {"label": "mid",  "patch": {"rate": {"mean": 6}}},
	      {"label": "high", "patch": {"rate": {"mean": 12}}}
	    ]}
	  ],
	  "seeds": [1, 2, 3, 4]
	}`

// testSpec parses the acceptance grid.
func testSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(acceptSpecDoc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMergePatch(t *testing.T) {
	cases := []struct{ target, patch, want string }{
		{`{"a":1,"b":2}`, `{"b":3}`, `{"a":1,"b":3}`},
		{`{"a":{"x":1,"y":2}}`, `{"a":{"y":null,"z":3}}`, `{"a":{"x":1,"z":3}}`},
		{`{"a":1}`, `{"a":{"nested":true}}`, `{"a":{"nested":true}}`},
		{`{"a":1}`, `{}`, `{"a":1}`},
		{`{"a":1}`, `{"big":9007199254740993}`, `{"a":1,"big":9007199254740993}`},
		{`{"a":1}`, `[1,{"b":null}]`, `[1,{"b":null}]`},              // non-object patch replaces the document
		{`[1,2]`, `{"a":{"b":1}}`, `{"a":{"b":1}}`},                  // object patch over a non-object target
		{`{"a":1}`, `{"b":{"c":null,"d":2}}`, `{"a":1,"b":{"d":2}}`}, // null inside a created object
	}
	for _, c := range cases {
		got, err := MergePatch([]byte(c.target), []byte(c.patch))
		if err != nil {
			t.Fatalf("patch %s: %v", c.patch, err)
		}
		var gv, wv interface{}
		if err := json.Unmarshal(got, &gv); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(c.want), &wv); err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(gv)
		w, _ := json.Marshal(wv)
		if !bytes.Equal(g, w) {
			t.Fatalf("merge(%s, %s) = %s, want %s", c.target, c.patch, g, w)
		}
	}
	if _, err := MergePatch([]byte(`{"a":`), []byte(`{"b":1}`)); err == nil {
		t.Fatal("malformed target accepted")
	}
}

// TestStrictParsersRejectTrailingData: ParseSpec and MergePatch read one
// JSON value per document; anything after it but white space is an error
// naming the trailing data.
func TestStrictParsersRejectTrailingData(t *testing.T) {
	spec := `{"name": "n", "base": ` + testBase + `}`
	for _, c := range []struct{ in, want string }{
		{spec + ` junk`, `invalid character 'j'`},
		{spec + ` {"name": "m"}`, `'{'`},
		{spec + `]`, `invalid character ']'`},
	} {
		if _, err := ParseSpec([]byte(c.in)); err == nil || !strings.Contains(err.Error(), "trailing data") ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(...%q) error %v, want trailing data %s", c.in[len(spec):], err, c.want)
		}
	}
	if _, err := ParseSpec([]byte(spec + " \n")); err != nil {
		t.Errorf("trailing white space: %v", err)
	}
	for _, c := range []struct{ target, patch, want string }{
		{`{"a":1}`, `{"b":2} {"c":3}`, `merge patch: trailing data after offset 7: '{'`},
		{`{"a":1}`, `{"b":2} x`, `merge patch: trailing data after offset 7: invalid character 'x'`},
		{`{"a":1} {"c":3}`, `{"b":2}`, `merge target: trailing data after offset 7: '{'`},
	} {
		got, err := MergePatch([]byte(c.target), []byte(c.patch))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("MergePatch(%s, %s) = %s, %v; want an error containing %q", c.target, c.patch, got, err, c.want)
		}
	}
	if got, err := MergePatch([]byte("{\"a\":1}\n"), []byte("{\"b\":2}\n")); err != nil || string(got) != `{"a":1,"b":2}` {
		t.Errorf("trailing white space: %s, %v", got, err)
	}
	// In a spec built in code, Expand refuses a base with trailing data, as
	// Validate does, and reads only the first value of a patch.
	s := &Spec{Name: "n", Base: json.RawMessage(testBase + ` {"seed": 2}`), Seeds: []int64{1, 2}}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), `base: scenario: trailing data`) {
		t.Errorf("Expand with trailing data after the base: %v", err)
	}
	s.Base = json.RawMessage(testBase)
	s.Axes = []Axis{{Name: "m", Values: []AxisValue{{Label: "30", Patch: json.RawMessage(`{"maxVMs": 30} {"maxVMs": 31}`)}}}}
	jobs, err := s.Expand()
	if err != nil || len(jobs) != 2 || jobs[0].Scenario.MaxVMs != 30 {
		t.Errorf("Expand with trailing data after a patch: %d jobs, %v", len(jobs), err)
	}
}

func TestExpandGrid(t *testing.T) {
	spec := testSpec(t)
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 {
		t.Fatalf("jobs = %d, want 12", len(jobs))
	}
	if jobs[0].ID != "rate=low/seed=1" || jobs[11].ID != "rate=high/seed=4" {
		t.Fatalf("job order: first %q last %q", jobs[0].ID, jobs[11].ID)
	}
	groups := GroupsInOrder(jobs)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	// Keys are unique and stable across expansions.
	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Key != again[i].Key {
			t.Fatalf("job %s key changed between expansions", jobs[i].ID)
		}
	}
	// Seeds land in the resolved scenario.
	if jobs[1].Scenario.Seed != 2 {
		t.Fatalf("seed = %d", jobs[1].Scenario.Seed)
	}
	// The key is insensitive to cosmetic spec changes but sensitive to
	// semantic ones.
	if jobs[0].Key == jobs[1].Key || jobs[0].Key == jobs[4].Key {
		t.Fatal("distinct jobs share a key")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []string{
		`{"name": "x", "base": {"graph": 5}, "axes": [], "seeds": [1]}`,                                               // base type error
		`{"name": "x", "base": ` + testBase + `, "axes": [{"name": "", "values": [{"label": "a", "patch": {}}]}]}`,    // unnamed axis
		`{"name": "x", "base": ` + testBase + `, "axes": [{"name": "a", "values": []}]}`,                              // empty axis
		`{"name": "x", "base": ` + testBase + `, "axes": [{"name": "a=b", "values": [{"label": "v", "patch": {}}]}]}`, // reserved char
		`{"name": "x", "base": ` + testBase + `, "seeds": [1, 1]}`,                                                    // duplicate seed
		`{"name": "x", "base": ` + testBase + `, "typo": 1}`,                                                          // unknown field
		wideSpecDoc(64),           // 2^64 jobs: a product wrapping to 0 must not pass the cap
		seedsSpecDoc(MaxJobs + 1), // one seed over the cap
	}
	for i, doc := range bad {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Fatalf("case %d: bad spec accepted", i)
		}
	}
	// The cap itself is accepted.
	if _, err := ParseSpec([]byte(seedsSpecDoc(MaxJobs))); err != nil {
		t.Fatalf("spec of exactly MaxJobs jobs: %v", err)
	}
}

// wideSpecDoc is a spec of n two-valued axes.
func wideSpecDoc(n int) string {
	axes := make([]string, n)
	for i := range axes {
		axes[i] = fmt.Sprintf(`{"name": "a%d", "values": [{"label": "x", "patch": {}}, {"label": "y", "patch": {}}]}`, i)
	}
	return `{"name": "wide", "base": ` + testBase + `, "axes": [` + strings.Join(axes, ", ") + `]}`
}

// seedsSpecDoc is a spec without axes whose seed list has n seeds.
func seedsSpecDoc(n int) string {
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i)
	}
	return `{"name": "seeds", "base": ` + testBase + `, "seeds": [` + strings.Join(seeds, ",") + `]}`
}

func TestSpecIDStable(t *testing.T) {
	a, err := testSpec(t).ID()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testSpec(t).ID()
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != 12 {
		t.Fatalf("spec IDs %q / %q", a, b)
	}
}

// TestRunDeterministicOutput is the byte-identical half of the acceptance
// criterion: two complete runs of the same spec produce identical
// aggregated CSV bytes.
func TestRunDeterministicOutput(t *testing.T) {
	run := func() []byte {
		eng := &Engine{Workers: 3}
		rep, err := eng.Run(context.Background(), testSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 12 || rep.Executed != 12 || rep.Errors != 0 {
			t.Fatalf("report = %+v", rep)
		}
		var buf bytes.Buffer
		if err := rep.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("aggregated output differs between runs:\n%s\n---\n%s", a, b)
	}
	if lines := strings.Split(strings.TrimSpace(string(a)), "\n"); len(lines) != 4 {
		t.Fatalf("csv rows = %d, want header + 3 groups", len(lines))
	}
}

// runWith expands spec and runs it on a pool of workers with one
// campaign's opts.
func runWith(ctx context.Context, workers int, spec *Spec, opts RunOpts) (*Report, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return (&Engine{Workers: workers}).RunCampaign(ctx, spec, jobs, opts)
}

// TestKillAndResume is the crash-resume half of the acceptance criterion:
// cancel a sweep mid-run, then resume against the same journal and verify
// only the missing jobs execute (the journal proves it via the hit count).
func TestKillAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	spec := testSpec(t)

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	rep, err := runWith(ctx, 2, spec, RunOpts{
		Journal: j1,
		OnProgress: func(p Progress) {
			if p.Executed >= 5 {
				once.Do(cancel) // kill mid-campaign
			}
		},
	})
	if err == nil || rep.Missing == 0 {
		t.Fatalf("cancelled run: err=%v missing=%d", err, rep.Missing)
	}
	completed := j1.Len()
	if completed == 0 || completed == 12 {
		t.Fatalf("journal has %d/12 entries after kill; want a partial campaign", completed)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: a fresh engine over the same journal file.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != completed {
		t.Fatalf("journal replay lost entries: %d != %d", j2.Len(), completed)
	}
	rep2, err := runWith(context.Background(), 2, spec, RunOpts{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != completed {
		t.Fatalf("resume cache hits = %d, want %d", rep2.CacheHits, completed)
	}
	if rep2.Executed != 12-completed {
		t.Fatalf("resume executed = %d, want %d", rep2.Executed, 12-completed)
	}
	if rep2.Missing != 0 || len(rep2.Results) != 12 {
		t.Fatalf("resume incomplete: %+v", rep2)
	}
	if got := rep2.HitRate(); got != float64(completed)/12 {
		t.Fatalf("hit rate = %v", got)
	}

	// A second resume serves everything from cache and matches a fresh
	// uncached campaign byte-for-byte.
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	rep3, err := runWith(context.Background(), 2, spec, RunOpts{Journal: j3})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.CacheHits != 12 || rep3.Executed != 0 {
		t.Fatalf("full-cache resume: %+v", rep3)
	}
	fresh, err := (&Engine{Workers: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var cachedCSV, freshCSV bytes.Buffer
	if err := rep3.WriteCSV(&cachedCSV); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteCSV(&freshCSV); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cachedCSV.Bytes(), freshCSV.Bytes()) {
		t.Fatalf("cached aggregate differs from fresh aggregate:\n%s\n---\n%s",
			cachedCSV.String(), freshCSV.String())
	}
}

// TestJournalTornTail simulates a crash mid-append: a truncated final line
// must not poison the journal.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Result{JobID: "a", Key: "k1", Omega: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"jobId":"b","key":"k2","om`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("entries = %d, want 1 (torn tail dropped)", j2.Len())
	}
	if _, ok := j2.Lookup("k1"); !ok {
		t.Fatal("intact entry lost")
	}
	if _, ok := j2.Lookup("k2"); ok {
		t.Fatal("torn entry replayed")
	}
	// The journal stays appendable after replaying a torn tail.
	if err := j2.Append(Result{JobID: "c", Key: "k3"}); err != nil {
		t.Fatal(err)
	}
}

// TestDrain checks the graceful-stop path: closing Drain abandons queued
// jobs, keeps finished ones, and reports ErrDrained.
func TestDrain(t *testing.T) {
	drain := make(chan struct{})
	var once sync.Once
	rep, err := runWith(context.Background(), 1, testSpec(t), RunOpts{
		Drain: drain,
		OnProgress: func(p Progress) {
			if p.Executed >= 3 {
				once.Do(func() { close(drain) })
			}
		},
	})
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained", err)
	}
	if rep.Missing == 0 || rep.Executed == 0 || rep.Executed+rep.Missing != 12 {
		t.Fatalf("drained report: %+v", rep)
	}
}

// TestJournalFailureStopsTheRun: when the journal refuses a completion the
// run returns that error, and once its one worker has stopped, nothing of
// the run is left waiting to dispatch the jobs it abandoned.
func TestJournalFailureStopsTheRun(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.f.Close(); err != nil { // every Append fails from here on
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	rep, err := runWith(context.Background(), 1, testSpec(t), RunOpts{Journal: j})
	if err == nil || !strings.Contains(err.Error(), "journal append") {
		t.Fatalf("err = %v, want the journal's append error", err)
	}
	if rep.Executed != 0 || rep.Missing != 12 {
		t.Fatalf("report counts %d executed and %d missing, want 0 and 12", rep.Executed, rep.Missing)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the run, %d before it", runtime.NumGoroutine(), before)
		}
	}
}

// TestJobErrorIsCachedNotFatal: a deterministically failing job is recorded
// as a per-job error, journaled, and excluded from aggregation.
func TestJobErrorIsCachedNotFatal(t *testing.T) {
	doc := fmt.Sprintf(`{
	  "name": "witherr",
	  "base": %s,
	  "axes": [{"name": "infra", "values": [
	    {"label": "ok",  "patch": {}},
	    {"label": "bad", "patch": {"infra": {"kind": "csvdir", "dir": "/nonexistent-sweep-dir"}}}
	  ]}],
	  "seeds": [1, 2]
	}`, testBase)
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWith(context.Background(), 2, spec, RunOpts{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 2 || rep.Executed != 4 {
		t.Fatalf("report = %+v", rep)
	}
	var badRow AggRow
	for _, row := range rep.Rows {
		if row.Group == "infra=bad" {
			badRow = row
		}
	}
	if badRow.Failed != 2 || badRow.Seeds != 2 {
		t.Fatalf("bad row = %+v", badRow)
	}
	j.Close()

	// On resume the failures are cache hits, not re-builds.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rep2, err := runWith(context.Background(), 2, spec, RunOpts{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != 4 || rep2.Executed != 0 || rep2.Errors != 0 {
		t.Fatalf("resume report = %+v", rep2)
	}
}
