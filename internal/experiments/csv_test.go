package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestFigureCSVWriters(t *testing.T) {
	c := Quick()
	c.HorizonSec = 3600
	c.Rates = []float64{5}

	f4, err := RunFig4(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f4.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(f4.Rows) {
		t.Fatalf("fig4 csv lines = %d, want %d", len(lines), 1+len(f4.Rows))
	}
	if !strings.HasPrefix(lines[0], "policy,rate,scenario,omega") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("ragged row %q", l)
		}
	}

	f8, err := RunFig8(c)
	if err != nil {
		t.Fatal(err)
	}
	f9, err := DeriveFig9(f8)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f9.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "global_vs_nodyn_pct") {
		t.Fatalf("fig9 csv = %q", buf.String())
	}

	ft, err := RunFaultTolerance(c, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ft.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crashes") {
		t.Fatal("ft csv missing crashes column")
	}

	buf.Reset()
	ab := AblationResult{Rows: []AblationRow{{Variant: "baseline (paper defaults)", Meets: true}}}
	if err := ab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "variant,omega") || !strings.HasSuffix(lines[1], ",true") {
		t.Fatalf("ablations csv = %q", buf.String())
	}
}
