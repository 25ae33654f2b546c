package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json names the
// program's workloads and its end-to-end metrics with their bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := f.EndToEnd[i]; got != (declared{m.name, m.unit, m.better, m.bound}) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced. Every
// correctness check must pass, and every metric BENCHMARK.json names must be
// printed with its unit, in the text lines and in the closing JSON object.
// A traced run on another seed must repeat the exact per-layer metrics,
// which come from the reference batch alone.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	exact := 5 + len(decisionKinds)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := measureRun(w, w.toy, 1, 0)
			checkOutput(t, w.name, r, f.EndToEnd)
			spans := filepath.Join(t.TempDir(), "spans.json")
			r = traceRun(w, w.toy, 1, 0, spans)
			checkOutput(t, w.name, r, f.PerLayer)
			other := traceRun(w, w.toy, 2, 0, spans)
			for i := 0; i < exact; i++ {
				if r.metrics[i] != other.metrics[i] {
					t.Errorf("exact metric %+v read %+v on another seed", r.metrics[i], other.metrics[i])
				}
			}
		})
	}
}

func checkOutput(t *testing.T, name string, r report, want []declared) {
	t.Helper()
	if !r.correct() {
		t.Fatalf("failed %d of %d, problems: %q", r.failed, r.attempted, r.problems)
	}
	var buf bytes.Buffer
	if err := r.write(&buf, name); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var last struct {
		Correct   *bool
		Attempted int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if last.Correct == nil || !*last.Correct || last.Failed == nil || *last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("last line %q does not report a correct run", lines[len(lines)-1])
	}
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		got, ok := last.Metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("JSON metric %s: got %+v, want a value in %s", m.Name, got, m.Unit)
		}
		if !hasLine(lines, name, m.Name, m.Unit) {
			t.Errorf("no line %q", name+" "+m.Name+" <value> "+m.Unit)
		}
	}
	var printed []string
	for k := range last.Metrics {
		printed = append(printed, k)
	}
	sort.Strings(names)
	sort.Strings(printed)
	if strings.Join(names, " ") != strings.Join(printed, " ") {
		t.Errorf("printed metrics %v, BENCHMARK.json declares %v", printed, names)
	}
}

func hasLine(lines []string, workload, metric, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == workload && f[1] == metric && f[3] == unit {
			return true
		}
	}
	return false
}

// TestBatchesRepeat runs a seeded batch of every workload twice: the same
// input must give the same output digest.
func TestBatchesRepeat(t *testing.T) {
	for _, w := range workloads {
		doc, _, err := batchInput(w, w.toy, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, b := w.measure(doc, nil), w.measure(doc, nil)
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: digests %q and %q", w.name, a.digest, b.digest)
		}
	}
}
