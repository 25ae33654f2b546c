package monitor

import (
	"reflect"
	"testing"
)

func TestRateEstimatorExportImportRoundTrip(t *testing.T) {
	r, err := NewRateEstimator(0.5)
	if err != nil {
		t.Fatal(err)
	}
	r.Observe(2, 10)
	r.Observe(0, 4)
	r.Observe(2, 12)

	entries := r.Export()
	if len(entries) != 2 || entries[0].Key != 0 || entries[1].Key != 2 {
		t.Fatalf("export not key-ordered: %+v", entries)
	}
	r2, _ := NewRateEstimator(0.5)
	r2.Import(entries)
	if !reflect.DeepEqual(r2.Export(), entries) {
		t.Fatalf("round trip changed entries: %+v vs %+v", r2.Export(), entries)
	}
	// The imported estimator continues smoothing identically.
	r.Observe(2, 20)
	r2.Observe(2, 20)
	if a, b := r.Estimate(2, 0), r2.Estimate(2, 0); a != b {
		t.Fatalf("post-import observation diverged: %v vs %v", a, b)
	}
}

func TestVMMonitorExportImportRoundTrip(t *testing.T) {
	m, err := NewVMMonitor(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ObserveCPU(5, Probe{Sec: 60, CPUCoeff: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := m.ObserveCPU(1, Probe{Sec: 120, CPUCoeff: 1.1}); err != nil {
		t.Fatal(err)
	}
	entries := m.Export()
	if len(entries) != 2 || entries[0].VM != 1 || entries[1].VM != 5 {
		t.Fatalf("export not vm-ordered: %+v", entries)
	}
	m2, _ := NewVMMonitor(0.3)
	m2.Import(entries)
	if !reflect.DeepEqual(m2.Export(), entries) {
		t.Fatalf("round trip changed entries: %+v", m2.Export())
	}
}
