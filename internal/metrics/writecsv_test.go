package metrics

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// referenceWriteCSV is WriteCSV as it was before rows were appended into a
// reused buffer, kept verbatim as the oracle: encoding/csv with one
// strconv string per cell.
func referenceWriteCSV(c *Collector, w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, p := range c.points {
		rec := []string{
			strconv.FormatInt(p.Sec, 10),
			f(p.Omega), f(p.Gamma), f(p.CostUSD),
			strconv.Itoa(p.ActiveVMs), strconv.Itoa(p.UsedCores),
			f(p.InputRate), f(p.OutputRate), f(p.Backlog), f(p.LatencySec),
			strconv.Itoa(p.PendingVMs),
		}
		if nt > 0 && (i+1)*nt <= len(c.tOmega) {
			for t := 0; t < nt; t++ {
				rec = append(rec, f(c.tOmega[i*nt+t]), f(c.tGamma[i*nt+t]), f(c.tSpend[i*nt+t]))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvFloats are cell values where the 'g' form differs from others, or that
// no CSV reader would expect: the non-finite ones, -0, subnormals, and both
// sides of the exponent cutoffs.
var csvFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324,
	1e-7, 1e-5, 1e-4, 0.1 + 0.2, 1, 1e20, 1e21, 1e22, -2.5e-300, math.MaxFloat64,
	123456.789, 0.8465892252718202,
}

// csvTenantNames need quoting in a header: commas, quotes, newlines, a
// leading space, and the lone `\.` encoding/csv quotes for Postgres.
var csvTenantNames = []string{
	"a", "sessions", "with,comma", `with"quote`, "with\nnewline", "with\r\ncrlf",
	" leading", `\.`, "é", "",
}

// randomCollector builds a collector of rows points from r: floats from
// csvFloats or random bits, random integers, nt tenants named from
// csvTenantNames, and, when short, a tenant series cut a row or more short
// of the points.
func randomCollector(r *rand.Rand, rows, nt int, short bool) *Collector {
	float := func() float64 {
		if r.Intn(2) == 0 {
			return csvFloats[r.Intn(len(csvFloats))]
		}
		return math.Float64frombits(r.Uint64())
	}
	integer := func() int {
		if r.Intn(2) == 0 {
			return r.Intn(5) - 1
		}
		return int(r.Uint64())
	}
	c := NewCollector()
	if nt > 0 {
		names := make([]string, nt)
		for i := range names {
			names[i] = fmt.Sprintf("%s%d", csvTenantNames[r.Intn(len(csvTenantNames))], i)
		}
		c.tenants = names
	}
	for i := 0; i < rows; i++ {
		c.points = append(c.points, Point{Sec: int64(integer()), Omega: float(), Gamma: float(),
			CostUSD: float(), ActiveVMs: integer(), PendingVMs: integer(), UsedCores: integer(),
			InputRate: float(), OutputRate: float(), Backlog: float(), LatencySec: float()})
		for t := 0; t < nt; t++ {
			c.tOmega = append(c.tOmega, float())
			c.tGamma = append(c.tGamma, float())
			c.tSpend = append(c.tSpend, float())
		}
	}
	if short && rows > 0 && nt > 0 {
		keep := r.Intn(rows) * nt
		c.tOmega, c.tGamma, c.tSpend = c.tOmega[:keep], c.tGamma[:keep], c.tSpend[:keep]
	}
	return c
}

// TestWriteCSVMatchesReference diffs WriteCSV against the encoding/csv
// writer it replaced on random collectors: no rows and one row, wide rows
// that cross the write chunk, tenant names that need quoting, tenant series
// shorter than the points, and non-finite, negative-zero and subnormal
// cells.
func TestWriteCSVMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		rows := []int{0, 1, 2, 7, 180}[trial%5]
		nt := []int{0, 1, 3, 16}[r.Intn(4)]
		short := r.Intn(3) == 0
		c := randomCollector(r, rows, nt, short)
		var want, got bytes.Buffer
		if err := referenceWriteCSV(c, &want); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d (%d rows, %d tenants, short %v): WriteCSV differs from the reference\ngot:\n%.2000s\nwant:\n%.2000s",
				trial, rows, nt, short, got.Bytes(), want.Bytes())
		}
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errSink = errors.New("sink full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errSink
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteCSVReportsSinkErrors: a sink that fails in the header, in the
// first chunk of rows or in the last one fails WriteCSV with its error.
func TestWriteCSVReportsSinkErrors(t *testing.T) {
	c := randomCollector(rand.New(rand.NewSource(2)), 180, 4, false)
	var full bytes.Buffer
	if err := c.WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 10, csvChunk, full.Len() - 1} {
		if err := c.WriteCSV(&failingWriter{n: n}); !errors.Is(err, errSink) {
			t.Fatalf("sink failing after %d of %d bytes: WriteCSV = %v, want %v", n, full.Len(), err, errSink)
		}
	}
}

// TestWriteCSVAllocs: WriteCSV allocates the same number of objects for one
// row as for 180: rows are appended into one buffer, without a string per
// cell.
func TestWriteCSVAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		c := randomCollector(rand.New(rand.NewSource(3)), rows, 16, false)
		return testing.AllocsPerRun(20, func() {
			if err := c.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(180)
	if one != many {
		t.Fatalf("WriteCSV allocates %v objects for 1 row and %v for 180, want the same", one, many)
	}
}

// BenchmarkWriteCSV times one WriteCSV (unit: csv) of a collector shaped
// like a tenants-scarce run's: 180 one-minute rows of 16 tenants, 59
// columns, with values in the ranges a run produces.
func BenchmarkWriteCSV(b *testing.B) {
	const rows, nt = 180, 16
	r := rand.New(rand.NewSource(4))
	c := NewCollector()
	names := make([]string, nt)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%02d", i)
	}
	if err := c.SetTenants(names); err != nil {
		b.Fatal(err)
	}
	omega, gamma, spend := make([]float64, nt), make([]float64, nt), make([]float64, nt)
	cost := 0.0
	for i := 0; i < rows; i++ {
		cost += 2 * r.Float64()
		if err := c.Add(Point{Sec: int64(60 * (i + 1)), Omega: r.Float64(), Gamma: 0.8 + 0.2*r.Float64(),
			CostUSD: cost, ActiveVMs: 300 + r.Intn(100), PendingVMs: r.Intn(4), UsedCores: 900 + r.Intn(300),
			InputRate: 400 * r.Float64(), OutputRate: 400 * r.Float64(), Backlog: 1e4 * r.Float64(),
			LatencySec: 30 * r.Float64()}); err != nil {
			b.Fatal(err)
		}
		for t := range omega {
			omega[t], gamma[t] = r.Float64(), 0.8+0.2*r.Float64()
			spend[t] += 0.1 * r.Float64()
		}
		if err := c.AddTenant(omega, gamma, spend); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteCSV(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
