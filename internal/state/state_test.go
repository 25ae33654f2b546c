package state

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/monitor"
	"dynamicdf/internal/obs"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		GraphPEs:    3,
		IntervalSec: 60,
		HorizonSec:  3600,
		Seed:        42,
		ClockSec:    1800,
		Deployed:    true,
		Stepped:     true,
		Selection:   []int{0, 1, 0},
		Routing:     []int{-1, -1, -1},
		Fleet: []cloud.VMRecord{
			{ID: 0, Class: "m1.small", StartSec: 0, StopSec: -1, TraceID: 7},
			{ID: 1, Class: "m1.large", StartSec: 60, StopSec: 900, UsedCores: 0},
		},
		Cores:  []CoreCell{{PE: 0, VM: 0, Cores: 1}},
		Queues: []QueueCell{{PE: 1, VM: -1, Queue: 12.5}, {PE: 1, VM: 0, Queue: 0.25}},
		RateEst: []monitor.RateEntry{
			{Key: 0, E: monitor.EWMAState{Value: 9.75, Primed: true}},
		},
		VMCPU: []monitor.VMCPUEntry{
			{VM: 0, E: monitor.EWMAState{Value: 0.93, Primed: true}, LastSec: 1740},
		},
		NetLat:         []NetEntry{{A: 0, B: 1, E: monitor.EWMAState{Value: 0.01, Primed: true}}},
		NetBW:          []NetEntry{{A: 0, B: 1, E: monitor.EWMAState{Value: 800, Primed: true}}},
		LastOmega:      0.875,
		OmegaSum:       26.25,
		OmegaN:         30,
		LastPEOut:      []float64{10, 9.5, 9.5},
		PrevCostUSD:    1.25,
		Metrics:        []metrics.Point{{Sec: 60, Omega: 1, Gamma: 0.9, CostUSD: 0.5, ActiveVMs: 1}},
		Audit:          []obs.Event{{Sec: 0, Type: "acquire-vm", VM: 0, Detail: "m1.small"}},
		SchedulerName:  "global-greedy",
		SchedulerState: json.RawMessage(`{"ticks":29}`),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != Version || s.Digest == "" {
		t.Fatalf("encode did not stamp version/digest: %q %q", s.Version, s.Digest)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Decoded snapshot re-encodes to the identical bytes: the encoding is
	// canonical, so snapshot identity is byte identity.
	blob2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("round trip not byte-identical:\n%s\n%s", blob, blob2)
	}
	if got.ClockSec != 1800 || got.Fleet[1].StopSec != 900 || got.Queues[0].VM != -1 {
		t.Fatalf("fields lost in round trip: %+v", got)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, _ := Encode(sampleSnapshot())
	b, _ := Encode(sampleSnapshot())
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of equal snapshots differ")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"not json":     []byte("state/v1"),
		"truncated":    blob[:len(blob)/2],
		"trailing":     append(append([]byte{}, blob...), []byte("{}")...),
		"bit flip":     bytes.Replace(blob, []byte(`"clockSec":1800`), []byte(`"clockSec":1801`), 1),
		"field inject": bytes.Replace(blob, []byte(`"graphPEs"`), []byte(`"bogus":1,"graphPEs"`), 1),
		"wrong version": bytes.Replace(blob, []byte(`"version":"state/v1"`),
			[]byte(`"version":"state/v0"`), 1),
		"no digest": func() []byte {
			s := sampleSnapshot()
			s.Version = Version
			s.Digest = ""
			b, _ := json.Marshal(s)
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupted input", name)
		}
	}
}

func TestDecodeErrorNamesDigest(t *testing.T) {
	blob, _ := Encode(sampleSnapshot())
	tampered := bytes.Replace(blob, []byte(`"seed":42`), []byte(`"seed":43`), 1)
	_, err := Decode(tampered)
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("tampered snapshot: got %v, want digest mismatch", err)
	}
}

// TestDecodeRejectsNonCanonical: the digest covers what a snapshot decodes
// to, so rewrites that decode alike pass it; Decode must still refuse them,
// and accept the encoding with white space around it.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	blob, err := Encode(sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(append([]byte("\n "), blob...), '\n')); err != nil {
		t.Fatalf("padded encoding: %v", err)
	}
	for name, rewrite := range map[string]func(string) string{
		"member case": func(s string) string { return strings.Replace(s, `"deployed"`, `"depLoyed"`, 1) },
		"white space": func(s string) string { return strings.Replace(s, `"seed":`, `"seed": `, 1) },
	} {
		data := rewrite(string(blob))
		if data == string(blob) {
			t.Fatalf("%s: rewrite left the encoding as it was", name)
		}
		if _, err := Decode([]byte(data)); err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Errorf("%s: Decode = %v, want a canonical-form error", name, err)
		}
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("Encode(nil) succeeded")
	}
}

// FuzzDecode asserts Decode never panics: arbitrary input must yield either
// a verified snapshot or an error. Seeded with a valid snapshot so mutations
// explore the version/digest/unknown-field rejection paths.
func FuzzDecode(f *testing.F) {
	blob, err := Encode(sampleSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":"state/v1","digest":"00"}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err == nil {
			// Anything Decode accepts must re-encode byte-identically —
			// acceptance means canonical.
			blob2, err2 := Encode(s)
			if err2 != nil {
				t.Fatalf("accepted snapshot fails to re-encode: %v", err2)
			}
			if !bytes.Equal(bytes.TrimSpace(data), blob2) {
				t.Fatalf("accepted non-canonical input:\n%s\n%s", data, blob2)
			}
		}
	})
}
