// Package metrics collects per-interval simulation measurements — the
// quantities the paper's evaluation plots: relative application throughput
// Omega(t), normalized application value Gamma(t), cumulative dollar cost
// mu(t), VM and core counts — and summarizes them over an optimization
// period.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Point is one interval's worth of measurements.
type Point struct {
	Sec        int64
	Omega      float64 // relative application throughput in [0, 1]
	Gamma      float64 // normalized application value in (0, 1]
	CostUSD    float64 // cumulative cost mu up to this interval
	ActiveVMs  int
	PendingVMs int // VMs still provisioning (acquired, not yet schedulable)
	UsedCores  int
	InputRate  float64 // aggregate external input rate, msg/s
	OutputRate float64 // aggregate output rate at sinks, msg/s
	Backlog    float64 // total queued messages
	LatencySec float64 // mean end-to-end latency estimate
}

// Collector accumulates points in time order and folds them into the run's
// Summary as they arrive. It is safe for concurrent use: one writer, the
// simulator, appends rows, and readers may run alongside it.
type Collector struct {
	mu sync.Mutex
	// summaryOnly collectors fold every row into sum and keep none of them.
	summaryOnly bool
	points      []Point
	// Multi-tenant runs declare a tenant dimension with SetTenants and
	// append one flattened row per interval with AddTenant (stride
	// len(tenants), row-major). All nil/empty for single-tenant runs.
	tenants []string
	tOmega  []float64
	tGamma  []float64
	tSpend  []float64
	// sum is the running reduction Summarize reads, point and tenant rows
	// folded in as they arrive.
	sum fold
}

// NewCollector returns an empty collector that keeps every row it is given.
func NewCollector() *Collector { return &Collector{} }

// NewSummaryCollector returns an empty collector that keeps no rows: it only
// folds them into its Summary. Its Points, Quantile, WriteCSV and
// TenantSeries see an empty series and Len is 0, while Summarize reports
// every row added.
func NewSummaryCollector() *Collector { return &Collector{summaryOnly: true} }

// Add appends a point. Points must arrive in non-decreasing time order.
func (c *Collector) Add(p Point) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sum.n > 0 && p.Sec < c.sum.lastSec {
		return fmt.Errorf("metrics: out-of-order point at %d after %d", p.Sec, c.sum.lastSec)
	}
	c.sum.add(p)
	if !c.summaryOnly {
		c.points = append(c.points, p)
	}
	return nil
}

// Reserve grows the collector's backing array so the next n Adds append
// without reallocating — lets zero-alloc benchmarks and long fixed-horizon
// runs pre-size the series. A collector that keeps no rows reserves nothing.
func (c *Collector) Reserve(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.summaryOnly {
		return
	}
	if free := cap(c.points) - len(c.points); free < n {
		grown := make([]Point, len(c.points), len(c.points)+n)
		copy(grown, c.points)
		c.points = grown
	}
	if t := len(c.tenants); t > 0 {
		c.tOmega = reserveFloats(c.tOmega, n*t)
		c.tGamma = reserveFloats(c.tGamma, n*t)
		c.tSpend = reserveFloats(c.tSpend, n*t)
	}
}

// Points returns a snapshot of the collected points.
func (c *Collector) Points() []Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Point(nil), c.points...)
}

// Len returns the number of points held: 0 for a collector that keeps no
// rows.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.points)
}

// Summary aggregates a run the way §6 defines period-level quantities.
type Summary struct {
	Intervals int
	// MeanOmega is the average relative throughput over the period
	// (the constraint compares this against Omega-hat).
	MeanOmega float64
	// MinOmega is the worst interval.
	MinOmega float64
	// MeanGamma is the average application value Gamma-bar.
	MeanGamma float64
	// TotalCostUSD is mu at the final interval.
	TotalCostUSD float64
	// PeakVMs and MeanVMs characterize fleet size.
	PeakVMs int
	MeanVMs float64
	// MeanLatencySec averages the latency estimate.
	MeanLatencySec float64
	// MeanBacklog averages queued messages.
	MeanBacklog float64
	// MeanUsedCores averages the cores actually assigned to PEs — the
	// utilization quantity sweep aggregation reports alongside cost.
	MeanUsedCores float64
	// Tenants carries the per-tenant reductions of a multi-tenant run, in
	// SetTenants order; nil for single-tenant runs.
	Tenants []TenantSummary
}

// Summarize returns the reduction of every point added so far, kept or not.
func (c *Collector) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sum.summary(c.tenants)
}

// fold is a series' running reduction: each row is added in arrival order,
// with the same float additions in the same order as summing the whole
// series at the end, so a summary is bit for bit the same whether the rows
// were kept or not.
type fold struct {
	n       int
	lastSec int64
	// Sums over the points, the minimum Ω, the peak fleet and the last
	// point's cumulative cost.
	omega, gamma, vms, latency, backlog, cores float64
	minOmega                                   float64
	peakVMs                                    int
	lastCost                                   float64
	// tenantRows counts AddTenant rows; tenants folds each tenant's column
	// (sized by SetTenants).
	tenantRows int
	tenants    []tenantFold
}

// add folds one point in.
func (f *fold) add(p Point) {
	if f.n == 0 {
		f.minOmega = math.Inf(1)
	}
	f.n++
	f.lastSec = p.Sec
	f.omega += p.Omega
	f.gamma += p.Gamma
	f.vms += float64(p.ActiveVMs)
	f.latency += p.LatencySec
	f.backlog += p.Backlog
	f.cores += float64(p.UsedCores)
	if p.Omega < f.minOmega {
		f.minOmega = p.Omega
	}
	if p.ActiveVMs > f.peakVMs {
		f.peakVMs = p.ActiveVMs
	}
	f.lastCost = p.CostUSD
}

// summary divides the sums out. Zero points summarize to the zero value: no
// division by the point count, and no infinity leaking out of MinOmega.
func (f *fold) summary(tenants []string) Summary {
	if f.n == 0 {
		return Summary{}
	}
	n := float64(f.n)
	return Summary{
		Intervals:      f.n,
		MeanOmega:      f.omega / n,
		MinOmega:       f.minOmega,
		MeanGamma:      f.gamma / n,
		TotalCostUSD:   f.lastCost,
		PeakVMs:        f.peakVMs,
		MeanVMs:        f.vms / n,
		MeanLatencySec: f.latency / n,
		MeanBacklog:    f.backlog / n,
		MeanUsedCores:  f.cores / n,
		Tenants:        f.tenantSummaries(tenants),
	}
}

// Quantile returns the q-quantile (0..1) of an arbitrary per-point metric.
// An empty collector yields 0, never NaN: quantiles feed JSON results and
// Prometheus gauges, and encoding/json refuses NaN.
func (c *Collector) Quantile(q float64, get func(Point) float64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.points) == 0 {
		return 0
	}
	vals := make([]float64, len(c.points))
	for i, p := range c.points {
		vals[i] = get(p)
	}
	sort.Float64s(vals)
	return quantileSorted(vals, q)
}

// quantileSorted interpolates the q-quantile (0..1) of ascending vals.
// Empty input yields 0.
func quantileSorted(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if len(vals) == 1 {
		return vals[0]
	}
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return vals[lo]
	}
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}

// Distribution summarizes replica samples of one metric the way the sweep
// engine aggregates seeds: mean plus the P50/P95 order statistics.
type Distribution struct {
	N    int
	Mean float64
	P50  float64
	P95  float64
}

// NewDistribution reduces samples (any order) to a Distribution. The input
// slice is not modified. Empty input yields the zero Distribution — zero
// mean and quantiles, never NaN, so an all-failed sweep group still
// marshals to valid JSON.
func NewDistribution(samples []float64) Distribution {
	d := Distribution{N: len(samples)}
	if len(samples) == 0 {
		return d
	}
	vals := append([]float64(nil), samples...)
	sort.Float64s(vals)
	for _, v := range vals {
		d.Mean += v
	}
	d.Mean /= float64(len(vals))
	d.P50 = quantileSorted(vals, 0.5)
	d.P95 = quantileSorted(vals, 0.95)
	return d
}

// csvChunk is how many bytes of rows WriteCSV gathers before each write to
// its sink.
const csvChunk = 4 << 10

// WriteCSV streams the points for external plotting.
func (c *Collector) WriteCSV(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The header goes through encoding/csv: a tenant's name may need
	// quoting.
	cw := csv.NewWriter(w)
	header := []string{"sec", "omega", "gamma", "cost_usd", "vms", "cores", "in_rate", "out_rate", "backlog", "latency_sec", "pending_vms"}
	// Multi-tenant runs append per-tenant columns after the fixed set;
	// single-tenant output keeps the exact historical header and rows.
	nt := len(c.tenants)
	for _, name := range c.tenants {
		header = append(header, "omega_"+name, "gamma_"+name, "spend_usd_"+name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	// A row holds numbers only, and strconv's 'g' and integer forms never
	// need CSV quoting, so each row is appended into one reused buffer: the
	// bytes encoding/csv would write for it, without a string per cell.
	b := make([]byte, 0, 2*csvChunk)
	for i := range c.points {
		p := &c.points[i]
		b = strconv.AppendInt(b, p.Sec, 10)
		b = appendCell(b, p.Omega)
		b = appendCell(b, p.Gamma)
		b = appendCell(b, p.CostUSD)
		b = strconv.AppendInt(append(b, ','), int64(p.ActiveVMs), 10)
		b = strconv.AppendInt(append(b, ','), int64(p.UsedCores), 10)
		b = appendCell(b, p.InputRate)
		b = appendCell(b, p.OutputRate)
		b = appendCell(b, p.Backlog)
		b = appendCell(b, p.LatencySec)
		b = strconv.AppendInt(append(b, ','), int64(p.PendingVMs), 10)
		if nt > 0 && (i+1)*nt <= len(c.tOmega) {
			for t := i * nt; t < (i+1)*nt; t++ {
				b = appendCell(b, c.tOmega[t])
				b = appendCell(b, c.tGamma[t])
				b = appendCell(b, c.tSpend[t])
			}
		}
		b = append(b, '\n')
		if len(b) >= csvChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if len(b) > 0 {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// appendCell appends a comma and v in the shortest 'g' form.
func appendCell(b []byte, v float64) []byte {
	return strconv.AppendFloat(append(b, ','), v, 'g', -1, 64)
}

// ReadCSV parses points written by WriteCSV back into a slice — the inverse
// used by the calibration importer to treat a recorded run as an observed
// system. The header row must match WriteCSV's column set exactly (order
// included), so schema drift fails loudly instead of silently misreading.
func ReadCSV(r io.Reader) ([]Point, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("metrics: csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("metrics: csv is empty")
	}
	want := []string{"sec", "omega", "gamma", "cost_usd", "vms", "cores", "in_rate", "out_rate", "backlog", "latency_sec", "pending_vms"}
	if len(rows[0]) != len(want) {
		return nil, fmt.Errorf("metrics: csv header has %d columns, want %d", len(rows[0]), len(want))
	}
	for i, col := range want {
		if rows[0][i] != col {
			return nil, fmt.Errorf("metrics: csv header column %d is %q, want %q", i+1, rows[0][i], col)
		}
	}
	points := make([]Point, 0, len(rows)-1)
	for i, row := range rows[1:] {
		fl := func(j int) (float64, error) {
			v, err := strconv.ParseFloat(row[j], 64)
			if err != nil {
				return 0, fmt.Errorf("metrics: csv row %d column %s: %w", i+2, want[j], err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("metrics: csv row %d column %s: non-finite %v", i+2, want[j], v)
			}
			return v, nil
		}
		in := func(j int) (int, error) {
			v, err := strconv.Atoi(row[j])
			if err != nil {
				return 0, fmt.Errorf("metrics: csv row %d column %s: %w", i+2, want[j], err)
			}
			return v, nil
		}
		var p Point
		var errs [11]error
		p.Sec, errs[0] = strconv.ParseInt(row[0], 10, 64)
		if errs[0] != nil {
			errs[0] = fmt.Errorf("metrics: csv row %d column sec: %w", i+2, errs[0])
		}
		p.Omega, errs[1] = fl(1)
		p.Gamma, errs[2] = fl(2)
		p.CostUSD, errs[3] = fl(3)
		p.ActiveVMs, errs[4] = in(4)
		p.UsedCores, errs[5] = in(5)
		p.InputRate, errs[6] = fl(6)
		p.OutputRate, errs[7] = fl(7)
		p.Backlog, errs[8] = fl(8)
		p.LatencySec, errs[9] = fl(9)
		p.PendingVMs, errs[10] = in(10)
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		points = append(points, p)
	}
	return points, nil
}

// SummarizePoints reduces an arbitrary point slice the same way a Collector
// summarizes its own run — so imported observations and simulated runs are
// compared through identical arithmetic.
func SummarizePoints(points []Point) Summary {
	var f fold
	for _, p := range points {
		f.add(p)
	}
	return f.summary(nil)
}

// String renders the summary as one line.
func (s Summary) String() string {
	return fmt.Sprintf("intervals=%d omega=%.3f (min %.3f) gamma=%.3f cost=$%.2f vms(mean/peak)=%.1f/%d",
		s.Intervals, s.MeanOmega, s.MinOmega, s.MeanGamma, s.TotalCostUSD, s.MeanVMs, s.PeakVMs)
}
