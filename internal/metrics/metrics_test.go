package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCollectorAddOrdering(t *testing.T) {
	c := NewCollector()
	if err := c.Add(Point{Sec: 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Point{Sec: 60}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Point{Sec: 60}); err != nil {
		t.Fatal(err) // equal timestamps allowed
	}
	if err := c.Add(Point{Sec: 30}); err == nil {
		t.Fatal("out-of-order point accepted")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector()
	pts := []Point{
		{Sec: 0, Omega: 1.0, Gamma: 1.0, CostUSD: 1, ActiveVMs: 2, LatencySec: 0.1, Backlog: 0},
		{Sec: 60, Omega: 0.5, Gamma: 0.8, CostUSD: 2, ActiveVMs: 4, LatencySec: 0.3, Backlog: 10},
	}
	for _, p := range pts {
		if err := c.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Summarize()
	if s.Intervals != 2 {
		t.Fatalf("intervals = %d", s.Intervals)
	}
	if s.MeanOmega != 0.75 || s.MinOmega != 0.5 {
		t.Fatalf("omega = %v / %v", s.MeanOmega, s.MinOmega)
	}
	if math.Abs(s.MeanGamma-0.9) > 1e-12 {
		t.Fatalf("gamma = %v", s.MeanGamma)
	}
	if s.TotalCostUSD != 2 {
		t.Fatalf("cost = %v", s.TotalCostUSD)
	}
	if s.PeakVMs != 4 || s.MeanVMs != 3 {
		t.Fatalf("vms = %v / %v", s.MeanVMs, s.PeakVMs)
	}
	if math.Abs(s.MeanLatencySec-0.2) > 1e-12 || s.MeanBacklog != 5 {
		t.Fatalf("lat/backlog = %v / %v", s.MeanLatencySec, s.MeanBacklog)
	}
	if !strings.Contains(s.String(), "omega=0.750") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	// A zero-interval run must summarize to the exact zero value: every
	// mean well-defined (no 0/0 NaNs), MinOmega 0 rather than +Inf, so the
	// invariant checker and aggregation can assert on empty runs.
	s := NewCollector().Summarize()
	if !reflect.DeepEqual(s, Summary{}) {
		t.Fatalf("empty summary = %+v, want zero value", s)
	}
	if math.IsNaN(s.MeanOmega) || math.IsInf(s.MinOmega, 0) {
		t.Fatalf("empty summary leaks NaN/Inf: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	c := NewCollector()
	for i, v := range []float64{1, 2, 3, 4, 5} {
		_ = c.Add(Point{Sec: int64(i), Omega: v})
	}
	get := func(p Point) float64 { return p.Omega }
	if q := c.Quantile(0.5, get); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := c.Quantile(0, get); q != 1 {
		t.Fatalf("min = %v", q)
	}
	if q := c.Quantile(1, get); q != 5 {
		t.Fatalf("max = %v", q)
	}
	if q := NewCollector().Quantile(0.5, get); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	one := NewCollector()
	_ = one.Add(Point{Omega: 7})
	if q := one.Quantile(0.9, get); q != 7 {
		t.Fatalf("singleton quantile = %v", q)
	}
}

func TestNewDistribution(t *testing.T) {
	d := NewDistribution([]float64{5, 1, 3, 2, 4})
	if d.N != 5 || d.Mean != 3 || d.P50 != 3 {
		t.Fatalf("distribution = %+v", d)
	}
	if math.Abs(d.P95-4.8) > 1e-12 {
		t.Fatalf("p95 = %v", d.P95)
	}
	empty := NewDistribution(nil)
	if empty != (Distribution{}) {
		t.Fatalf("empty distribution = %+v, want zero value", empty)
	}
	one := NewDistribution([]float64{7})
	if one.Mean != 7 || one.P50 != 7 || one.P95 != 7 {
		t.Fatalf("singleton distribution = %+v", one)
	}
	// Input must not be reordered.
	in := []float64{9, 1}
	_ = NewDistribution(in)
	if in[0] != 9 {
		t.Fatal("input mutated")
	}
}

// Empty-input reductions must stay NaN-free: their values flow into JSON
// sweep results (encoding/json rejects NaN) and Prometheus gauges.
func TestEmptyReductionsMarshalToJSON(t *testing.T) {
	d := NewDistribution(nil)
	if math.IsNaN(d.Mean) || math.IsNaN(d.P50) || math.IsNaN(d.P95) {
		t.Fatalf("empty distribution has NaN fields: %+v", d)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("empty distribution does not marshal: %v", err)
	}
	q := NewCollector().Quantile(0.95, func(p Point) float64 { return p.Omega })
	if math.IsNaN(q) {
		t.Fatal("empty collector quantile is NaN")
	}
	if _, err := json.Marshal(struct{ Q float64 }{q}); err != nil {
		t.Fatalf("empty quantile does not marshal: %v", err)
	}
}

func TestSummarizeMeanUsedCores(t *testing.T) {
	c := NewCollector()
	_ = c.Add(Point{Sec: 0, UsedCores: 2})
	_ = c.Add(Point{Sec: 60, UsedCores: 6})
	if s := c.Summarize(); s.MeanUsedCores != 4 {
		t.Fatalf("mean used cores = %v", s.MeanUsedCores)
	}
}

func TestWriteCSV(t *testing.T) {
	c := NewCollector()
	_ = c.Add(Point{Sec: 0, Omega: 0.9, Gamma: 1, CostUSD: 0.06, ActiveVMs: 1, UsedCores: 2, InputRate: 5, OutputRate: 9, Backlog: 0, LatencySec: 0.01})
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "sec,omega,gamma") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0.9,1,0.06,1,2,5,9,0,0.01") {
		t.Fatalf("row = %q", lines[1])
	}
}
