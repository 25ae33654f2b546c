package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dynamicdf/internal/trace"
)

func TestGenSpecConversionRoundTrip(t *testing.T) {
	cfg := trace.DefaultCPUConfig()
	spec := GenSpecFrom(cfg)
	if got := spec.GenConfig(); !reflect.DeepEqual(got, cfg) {
		t.Fatalf("GenSpec round trip: %+v != %+v", got, cfg)
	}
}

func TestInfraGenSpecOverridesProvider(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	sc.Infra.Kind = "replayed"
	// A degenerate constant generator: every coefficient is exactly 0.5.
	sc.Infra.CPU = &GenSpec{Mean: 0.5, Min: 0.5, Max: 0.5, PeriodSec: 60}
	perf, err := sc.perf(nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 8; id++ {
		if got := perf.CPUCoeff(id, 3600); got != 0.5 {
			t.Fatalf("overridden CPUCoeff = %v, want 0.5", got)
		}
	}
	// Latency left nil still uses package defaults (nonzero, plausible).
	if l := perf.LatencySec(1, 2, 0); l <= 0 || l > 0.1 {
		t.Fatalf("default latency = %v", l)
	}

	// An invalid override surfaces the generator's validation error.
	sc.Infra.CPU = &GenSpec{Mean: 2, Min: 0, Max: 1, PeriodSec: 60}
	if _, err := sc.perf(nil); err == nil || !strings.Contains(err.Error(), "infra cpu") {
		t.Fatalf("invalid cpu override error = %v", err)
	}
	sc.Infra.CPU = nil
	sc.Infra.Bandwidth = &GenSpec{Mean: 50, Min: 60, Max: 40, PeriodSec: 60}
	if _, err := sc.perf(nil); err == nil || !strings.Contains(err.Error(), "infra bandwidth") {
		t.Fatalf("invalid bandwidth override error = %v", err)
	}
}

// Scenarios that do not use the new infra override fields must keep their
// canonical JSON byte-identical to before the fields existed — the sweep
// journal cache keys hash that JSON.
func TestInfraGenSpecCanonicalStability(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	can, err := sc.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, leaked := range []string{"cpu", "latency", "bandwidth", "regimeProb"} {
		if bytes.Contains(can, []byte(`"`+leaked+`"`)) {
			t.Fatalf("canonical JSON of a plain scenario mentions %q:\n%s", leaked, can)
		}
	}

	// With an override set, the canonical form re-parses losslessly and is a
	// fixed point.
	sc.Infra.Kind = "replayed"
	sc.Infra.CPU = GenSpecFrom(trace.DefaultCPUConfig())
	can, err = sc.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := ParseBytes(can)
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if !reflect.DeepEqual(sc2.Infra, sc.Infra) {
		t.Fatalf("infra after round-trip = %+v, want %+v", sc2.Infra, sc.Infra)
	}
	can2, err := sc2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(can, can2) {
		t.Fatal("canonical JSON is not a fixed point")
	}
}
