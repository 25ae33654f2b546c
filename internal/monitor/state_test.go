package monitor

import (
	"math/rand"
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

func TestNetMonitorExportImportRoundTrip(t *testing.T) {
	probe := func(a, b int, sec int64) (float64, float64, bool) {
		if a == 2 && b == 3 {
			return -1, 800, true // invalid: the pair never becomes present
		}
		k := float64(a + b + int(sec/60))
		return 0.01 * k, 100 * k, true
	}
	m, err := NewNetMonitor(0.5, 60, probe)
	if err != nil {
		t.Fatal(err)
	}
	// Observe in any order; pairs are canonicalized.
	for _, vm := range []int{3, 1, 2} {
		m.Observe(vm, 60)
	}
	lat, bw := m.Export()
	if len(lat) != 2 || len(bw) != 2 {
		t.Fatalf("export sizes: %d lat, %d bw", len(lat), len(bw))
	}
	if lat[0].A != 1 || lat[0].B != 2 || lat[1].A != 1 || lat[1].B != 3 {
		t.Fatalf("lat export not pair-ordered: %+v", lat)
	}
	m2, _ := NewNetMonitor(0.5, 60, probe)
	m2.Import(lat, bw, 60)
	lat2, bw2 := m2.Export()
	if !reflect.DeepEqual(lat2, lat) || !reflect.DeepEqual(bw2, bw) {
		t.Fatalf("round trip changed entries")
	}
	// Both continue alike from the next pass, which also sees a new VM 4.
	for _, mon := range []*NetMonitor{m, m2} {
		for _, vm := range []int{1, 2, 3, 4} {
			mon.Observe(vm, 120)
		}
	}
	lat, bw = m.Export()
	lat2, bw2 = m2.Export()
	if len(lat) != 5 || !reflect.DeepEqual(lat2, lat) || !reflect.DeepEqual(bw2, bw) {
		t.Fatalf("imported monitor diverged after a pass: %+v vs %+v", lat2, lat)
	}
}

// eagerPair is one pair's estimators as an eager probe loop keeps them.
type eagerPair struct {
	lat, bw EWMA
	present bool
}

// TestNetMonitorFoldsOnDemand drives a churning fleet and checks every pair
// against an oracle that folds every probe at its pass, whether the monitor
// is read after every pass, now and then, or only at the end.
func TestNetMonitorFoldsOnDemand(t *testing.T) {
	probe := func(a, b int, sec int64) (float64, float64, bool) {
		k := a*7 + b*13 + int(sec/60)
		return float64(k%11)/1000 - 0.002, float64(k%5) * 10, k%4 != 0
	}
	for _, every := range []int{1, 3, 0} {
		m, err := NewNetMonitor(0.3, 60, probe)
		if err != nil {
			t.Fatal(err)
		}
		oracle := map[[2]int]*eagerPair{}
		var active []int // ascending
		rng := rand.New(rand.NewSource(int64(every)))
		next := 0
		check := func() {
			for key, want := range oracle {
				lat, bw := m.Latency(key[0], key[1], -1), m.Bandwidth(key[0], key[1], -1)
				if !want.present {
					if lat != -1 || bw != -1 {
						t.Fatalf("every %d: absent pair %v read %v/%v", every, key, lat, bw)
					}
					continue
				}
				if lat != want.lat.ValueOr(-1) || bw != want.bw.ValueOr(-1) {
					t.Fatalf("every %d: pair %v read %v/%v, want %v/%v", every, key, lat, bw,
						want.lat.ValueOr(-1), want.bw.ValueOr(-1))
				}
			}
		}
		for pass := 1; pass <= 40; pass++ {
			sec := int64(pass * 60)
			for n := rng.Intn(3); n > 0; n-- {
				active = append(active, next)
				next++
			}
			kept := active[:0]
			for _, vm := range active {
				if rng.Intn(10) != 0 {
					kept = append(kept, vm)
					continue
				}
				m.ForgetVM(vm)
				for key := range oracle {
					if key[0] == vm || key[1] == vm {
						delete(oracle, key)
					}
				}
			}
			active = kept
			for i, a := range active {
				m.Observe(a, sec)
				for _, b := range active[i+1:] {
					p := oracle[[2]int{a, b}]
					if p == nil {
						p = &eagerPair{lat: EWMA{alpha: 0.3}, bw: EWMA{alpha: 0.3}}
						oracle[[2]int{a, b}] = p
					}
					lat, bw, ok := probe(a, b, sec)
					if !ok || lat < 0 || bw <= 0 {
						continue
					}
					p.present = true
					p.lat.Observe(lat)
					p.bw.Observe(bw)
				}
			}
			if every > 0 && pass%every == 0 {
				check()
			}
		}
		check()
	}
}
