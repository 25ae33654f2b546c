package sim_test

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"dynamicdf/internal/metrics"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
)

// TestRestoreRejectsMetricRowCountMismatch: Ω's tally and the metric series
// both advance once per interval, so a snapshot with a metric row dropped or
// duplicated — re-encoded, so its digest holds — is refused with an error
// naming both counts, instead of resuming a run that reports one interval
// too few or too many. The committed pre-refactor snapshot still restores.
func TestRestoreRejectsMetricRowCountMismatch(t *testing.T) {
	doc, err := os.ReadFile("../../testdata/prerefactor/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.ParseBytes(doc)
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile("../../testdata/prerefactor/snap.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Restore(snap, built.Config); err != nil {
		t.Fatalf("the committed snapshot does not restore: %v", err)
	}
	n := len(snap.Metrics)
	if n < 3 || snap.OmegaN != n {
		t.Fatalf("fixture has %d metric rows for %d intervals", n, snap.OmegaN)
	}
	for _, tc := range []struct {
		name string
		edit func([]metrics.Point) []metrics.Point
	}{
		{"dropped row", func(m []metrics.Point) []metrics.Point { return slices.Delete(m, n/2, n/2+1) }},
		{"duplicated row", func(m []metrics.Point) []metrics.Point { return slices.Insert(m, n/2, m[n/2]) }},
	} {
		bad, err := state.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		bad.Metrics = tc.edit(bad.Metrics)
		reencoded, err := state.Encode(bad)
		if err != nil {
			t.Fatal(err)
		}
		if bad, err = state.Decode(reencoded); err != nil {
			t.Fatalf("%s: re-encoded snapshot does not decode: %v", tc.name, err)
		}
		_, err = sim.Restore(bad, built.Config)
		want := fmt.Sprintf("%d metric rows for %d intervals", len(bad.Metrics), n)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: restore error %v, want one naming %q", tc.name, err, want)
		}
	}
}
