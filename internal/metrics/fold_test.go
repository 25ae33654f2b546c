package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refCollector holds a series the way Collector held it before its summary
// became a fold.
type refCollector struct {
	points  []Point
	tenants []string
	tOmega  []float64
	tGamma  []float64
	tSpend  []float64
}

// Summarize is the row loop Collector.Summarize ran before the fold, kept
// verbatim (lock aside) as the oracle.
func (c *refCollector) Summarize() Summary {
	if len(c.points) == 0 {
		// A zero-interval run summarizes to the zero value: no division by
		// the point count below, and no infinity leaking out of MinOmega.
		return Summary{}
	}
	s := Summary{Intervals: len(c.points), MinOmega: math.Inf(1)}
	for _, p := range c.points {
		s.MeanOmega += p.Omega
		s.MeanGamma += p.Gamma
		s.MeanVMs += float64(p.ActiveVMs)
		s.MeanLatencySec += p.LatencySec
		s.MeanBacklog += p.Backlog
		s.MeanUsedCores += float64(p.UsedCores)
		if p.Omega < s.MinOmega {
			s.MinOmega = p.Omega
		}
		if p.ActiveVMs > s.PeakVMs {
			s.PeakVMs = p.ActiveVMs
		}
	}
	n := float64(len(c.points))
	s.MeanOmega /= n
	s.MeanGamma /= n
	s.MeanVMs /= n
	s.MeanLatencySec /= n
	s.MeanBacklog /= n
	s.MeanUsedCores /= n
	s.TotalCostUSD = c.points[len(c.points)-1].CostUSD
	s.Tenants = c.summarizeTenantsLocked()
	return s
}

// summarizeTenantsLocked is the old per-tenant row loop, kept verbatim.
func (c *refCollector) summarizeTenantsLocked() []TenantSummary {
	t := len(c.tenants)
	rows := 0
	if t > 0 {
		rows = len(c.tOmega) / t
	}
	if rows == 0 {
		return nil
	}
	out := make([]TenantSummary, t)
	for i, name := range c.tenants {
		ts := TenantSummary{Name: name, MinOmega: c.tOmega[i]}
		for r := 0; r < rows; r++ {
			o := c.tOmega[r*t+i]
			ts.MeanOmega += o
			ts.MeanGamma += c.tGamma[r*t+i]
			if o < ts.MinOmega {
				ts.MinOmega = o
			}
		}
		ts.MeanOmega /= float64(rows)
		ts.MeanGamma /= float64(rows)
		ts.SpendUSD = c.tSpend[(rows-1)*t+i]
		out[i] = ts
	}
	return out
}

// randomSeries draws n points and, for tenants > 0, n tenant rows. Ω and the
// tenant Ωs come from a small set with both zeros, so ties (and which zero a
// tie keeps) are common; now and then a value is NaN.
func randomSeries(rng *rand.Rand, n, tenants int) (ref refCollector) {
	omegas := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.5, 0.75, 1, 1}
	omega := func() float64 {
		if rng.Intn(50) == 0 {
			return math.NaN()
		}
		if rng.Intn(3) == 0 {
			return rng.Float64()
		}
		return omegas[rng.Intn(len(omegas))]
	}
	for i := 0; i < tenants; i++ {
		ref.tenants = append(ref.tenants, fmt.Sprintf("t%d", i))
	}
	sec, cost := int64(0), 0.0
	spend := make([]float64, tenants)
	for r := 0; r < n; r++ {
		sec += int64(rng.Intn(3)) * 60
		cost += rng.Float64() * 0.1
		ref.points = append(ref.points, Point{
			Sec: sec, Omega: omega(), Gamma: rng.Float64(), CostUSD: cost,
			ActiveVMs: rng.Intn(40), PendingVMs: rng.Intn(5), UsedCores: rng.Intn(200),
			InputRate: rng.Float64() * 100, OutputRate: rng.Float64() * 100,
			Backlog: rng.ExpFloat64() * 1e4, LatencySec: rng.Float64(),
		})
		for t := 0; t < tenants; t++ {
			spend[t] += rng.Float64() * 0.05
			ref.tOmega = append(ref.tOmega, omega())
			ref.tGamma = append(ref.tGamma, rng.Float64())
			ref.tSpend = append(ref.tSpend, spend[t])
		}
	}
	return ref
}

// sameSummary fails unless got equals want field by field, floats by their
// bits.
func sameSummary(t *testing.T, what string, got, want Summary) {
	t.Helper()
	bits := math.Float64bits
	if got.Intervals != want.Intervals || got.PeakVMs != want.PeakVMs ||
		bits(got.MeanOmega) != bits(want.MeanOmega) || bits(got.MinOmega) != bits(want.MinOmega) ||
		bits(got.MeanGamma) != bits(want.MeanGamma) || bits(got.TotalCostUSD) != bits(want.TotalCostUSD) ||
		bits(got.MeanVMs) != bits(want.MeanVMs) || bits(got.MeanLatencySec) != bits(want.MeanLatencySec) ||
		bits(got.MeanBacklog) != bits(want.MeanBacklog) || bits(got.MeanUsedCores) != bits(want.MeanUsedCores) {
		t.Fatalf("%s: summary\n got %+v\nwant %+v", what, got, want)
	}
	if (got.Tenants == nil) != (want.Tenants == nil) || len(got.Tenants) != len(want.Tenants) {
		t.Fatalf("%s: tenants %+v, want %+v", what, got.Tenants, want.Tenants)
	}
	for i, g := range got.Tenants {
		w := want.Tenants[i]
		if g.Name != w.Name || bits(g.MeanOmega) != bits(w.MeanOmega) || bits(g.MinOmega) != bits(w.MinOmega) ||
			bits(g.MeanGamma) != bits(w.MeanGamma) || bits(g.SpendUSD) != bits(w.SpendUSD) {
			t.Fatalf("%s: tenant %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// fill adds ref's rows [from, to) to c live: Add, then AddTenant.
func fill(t *testing.T, c *Collector, ref refCollector, from, to int) {
	t.Helper()
	nt := len(ref.tenants)
	for r := from; r < to; r++ {
		if err := c.Add(ref.points[r]); err != nil {
			t.Fatal(err)
		}
		if nt > 0 {
			if err := c.AddTenant(ref.tOmega[r*nt:(r+1)*nt], ref.tGamma[r*nt:(r+1)*nt], ref.tSpend[r*nt:(r+1)*nt]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSummaryFoldMatchesReference: the folded summary equals the old row
// loop's bit for bit — on collectors that keep their rows and on ones that
// keep none, over 0, 1 and many rows, Ω ties, NaNs, 0–4 tenants, series
// restored mid-run the way sim.Restore rebuilds them (the prefix's points
// re-added, then its tenant rows imported) and through SummarizePoints.
func TestSummaryFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for iter := 0; iter < 400; iter++ {
		n := []int{0, 1, 2, 7, 60, 600}[iter%6]
		tenants := iter / 6 % 5
		ref := randomSeries(rng, n, tenants)
		want := ref.Summarize()
		for _, keep := range []bool{true, false} {
			newC := NewSummaryCollector
			if keep {
				newC = NewCollector
			}
			what := fmt.Sprintf("iter %d (%d rows, %d tenants, keep %v)", iter, n, tenants, keep)

			live := newC()
			if tenants > 0 {
				if err := live.SetTenants(ref.tenants); err != nil {
					t.Fatal(err)
				}
			}
			fill(t, live, ref, 0, n)
			sameSummary(t, what+" live", live.Summarize(), want)
			if got, wantLen := live.Len(), map[bool]int{true: n, false: 0}[keep]; got != wantLen {
				t.Fatalf("%s: holds %d rows, want %d", what, got, wantLen)
			}

			k := 0
			if n > 0 {
				k = rng.Intn(n + 1)
			}
			restored := newC()
			if tenants > 0 {
				if err := restored.SetTenants(ref.tenants); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range ref.points[:k] {
				if err := restored.Add(p); err != nil {
					t.Fatal(err)
				}
			}
			if tenants > 0 {
				c := k * tenants
				if err := restored.ImportTenantSeries(ref.tOmega[:c], ref.tGamma[:c], ref.tSpend[:c]); err != nil {
					t.Fatal(err)
				}
			}
			fill(t, restored, ref, k, n)
			sameSummary(t, fmt.Sprintf("%s restored at row %d", what, k), restored.Summarize(), want)
		}
		pointsOnly := refCollector{points: ref.points}
		sameSummary(t, fmt.Sprintf("iter %d SummarizePoints", iter), SummarizePoints(ref.points), pointsOnly.Summarize())
	}
}

// TestSummaryCollectorKeepsNoRows: a collector that keeps no rows still
// orders its points and checks its tenant rows, and shows an empty series.
func TestSummaryCollectorKeepsNoRows(t *testing.T) {
	c := NewSummaryCollector()
	if err := c.SetTenants([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	c.Reserve(1000)
	if err := c.Add(Point{Sec: 60, Omega: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(Point{Sec: 0}); err == nil {
		t.Fatal("out-of-order point accepted")
	}
	if err := c.AddTenant([]float64{1, 0.5}, []float64{1, 1}, []float64{0.1, 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTenant([]float64{1, 0.5}, []float64{1, 1}, []float64{0.1, 0.2}); err == nil {
		t.Fatal("a second tenant row for one point accepted")
	}
	if err := c.SetTenants([]string{"c"}); err == nil {
		t.Fatal("SetTenants after a point accepted")
	}
	omega, _, _ := c.TenantSeries()
	if c.Len() != 0 || len(c.Points()) != 0 || len(c.OmegaSeries()) != 0 || len(omega) != 0 {
		t.Fatalf("summary-only collector holds rows: %d points, %d tenant cells", c.Len(), len(omega))
	}
	if s := c.Summarize(); s.Intervals != 1 || s.MeanOmega != 0.5 || len(s.Tenants) != 2 || s.Tenants[1].SpendUSD != 0.2 {
		t.Fatalf("summary = %+v", s)
	}
}
