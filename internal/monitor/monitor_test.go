package monitor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAPrimesOnFirstObservation(t *testing.T) {
	e := &EWMA{alpha: 0.5}
	if _, ok := e.Value(); ok {
		t.Fatal("unprimed estimator claims a value")
	}
	if got := e.ValueOr(7); got != 7 {
		t.Fatalf("ValueOr = %v", got)
	}
	e.Observe(10)
	if v, ok := e.Value(); !ok || v != 10 {
		t.Fatalf("after prime: %v %v", v, ok)
	}
	e.Observe(20)
	if v, _ := e.Value(); v != 15 {
		t.Fatalf("after second: %v", v)
	}
	e.Reset()
	if _, ok := e.Value(); ok {
		t.Fatal("reset did not clear")
	}
}

func TestEWMAIgnoresBrokenProbes(t *testing.T) {
	e := &EWMA{alpha: 0.5}
	e.Observe(10)
	e.Observe(math.NaN())
	e.Observe(math.Inf(1))
	if v, _ := e.Value(); v != 10 {
		t.Fatalf("poisoned estimate: %v", v)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := &EWMA{alpha: 0.3}
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if v, _ := e.Value(); math.Abs(v-42) > 1e-9 {
		t.Fatalf("did not converge: %v", v)
	}
}

func TestRateEstimator(t *testing.T) {
	r, err := NewRateEstimator(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Estimate(3, 9); got != 9 {
		t.Fatalf("default = %v", got)
	}
	r.Observe(3, 10)
	r.Observe(3, 20)
	if got := r.Estimate(3, 0); got != 15 {
		t.Fatalf("estimate = %v", got)
	}
	r.Observe(4, 5)
	if got := r.Estimate(4, 0); got != 5 {
		t.Fatalf("second key's estimate = %v", got)
	}
	if _, err := NewRateEstimator(0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

func TestVMMonitor(t *testing.T) {
	m, err := NewVMMonitor(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.CPUCoeff(1, 1.0); got != 1.0 {
		t.Fatalf("unprobed default = %v", got)
	}
	if err := m.ObserveCPU(1, Probe{Sec: 60, CPUCoeff: 0.8}); err != nil {
		t.Fatal(err)
	}
	if err := m.ObserveCPU(1, Probe{Sec: 120, CPUCoeff: 0.6}); err != nil {
		t.Fatal(err)
	}
	if got := m.CPUCoeff(1, 1.0); got != 0.7 {
		t.Fatalf("coeff = %v", got)
	}
	if err := m.ObserveCPU(2, Probe{CPUCoeff: 0}); err == nil {
		t.Fatal("zero coefficient accepted")
	}
	if got := m.CPUCoeff(2, 1.0); got != 1.0 {
		t.Fatalf("rejected probe left state: coeff = %v", got)
	}
	m.Forget(1)
	if got := m.CPUCoeff(1, 1.0); got != 1.0 {
		t.Fatalf("forget did not remove: coeff = %v", got)
	}
	if len(m.Export()) != 0 {
		t.Fatal("forgotten VM still exported")
	}
	if _, err := NewVMMonitor(2); err == nil {
		t.Fatal("alpha 2 accepted")
	}
}

func TestPropertyEWMAStaysInObservedRange(t *testing.T) {
	f := func(alphaRaw uint8, obs []float64) bool {
		alpha := 0.05 + float64(alphaRaw%90)/100.0
		e := &EWMA{alpha: alpha}
		lo, hi := math.Inf(1), math.Inf(-1)
		any := false
		for _, x := range obs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Estimators track rates and coefficients; bound the domain so
			// the intermediate (x - value) cannot overflow.
			x = math.Mod(x, 1e6)
			any = true
			e.Observe(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		if !any {
			_, ok := e.Value()
			return !ok
		}
		v, ok := e.Value()
		return ok && v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
