package workload

import (
	"math"
	"testing"
)

func openSpec() Spec {
	return Spec{
		Model:            Open,
		ArrivalPerSec:    2,
		MeanSessionSec:   300,
		MsgPerSessionSec: 0.5,
		Seed:             7,
	}
}

func TestOpenMeanMatchesLittlesLaw(t *testing.T) {
	s := MustNew(openSpec())
	want := 2 * 300 * 0.5 // λ·E[S]·m
	if got := s.Mean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Mean() = %v, want %v", got, want)
	}
	// The simulated path should settle near the analytic mean.
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		sum += s.Rate(int64(i) * 60)
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("simulated mean %v too far from analytic %v", got, want)
	}
}

func TestClosedMeanAndBound(t *testing.T) {
	s := MustNew(Spec{
		Model:            Closed,
		Population:       1000,
		ThinkSec:         600,
		MeanSessionSec:   300,
		MsgPerSessionSec: 1,
		Seed:             3,
	})
	want := 1000.0 * 300 / (300 + 600)
	if got := s.Mean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Mean() = %v, want %v", got, want)
	}
	for sec := int64(0); sec < 86400; sec += 60 {
		if a := s.ActiveSessions(sec); a < 0 || a > 1000 {
			t.Fatalf("active sessions %v outside [0, population] at t=%d", a, sec)
		}
	}
}

func TestDeterministicAndQueryOrderIndependent(t *testing.T) {
	a := MustNew(openSpec())
	b := MustNew(openSpec())
	// Query b backwards and out of order; values must match a's forward scan.
	if got, want := b.Rate(500000), a.Rate(500000); got != want {
		t.Fatalf("far query mismatch: %v vs %v", got, want)
	}
	for sec := int64(100000); sec >= 0; sec -= 7777 {
		if got, want := b.Rate(sec), a.Rate(sec); got != want {
			t.Fatalf("Rate(%d) order-dependent: %v vs %v", sec, got, want)
		}
	}
}

func TestSeedZeroFallsBack(t *testing.T) {
	sp := openSpec()
	sp.Seed = 0
	s := MustNew(sp)
	if s.Spec().Seed != 1 {
		t.Fatalf("seed 0 should fall back to 1, got %d", s.Spec().Seed)
	}
	sp.Seed = 1
	ref := MustNew(sp)
	if s.Rate(3600) != ref.Rate(3600) {
		t.Fatal("seed-0 generator should match seed-1")
	}
}

func TestDiurnalModulatesAroundMean(t *testing.T) {
	sp := openSpec()
	sp.Diurnal = 0.5
	sp.Seed = 11
	s := MustNew(sp)
	// Peak-window average must exceed trough-window average.
	day := int64(86400)
	avg := func(lo, hi int64) float64 {
		var sum float64
		var n int
		// Skip the first day so the population has warmed up.
		for t := day + lo; t < day+hi; t += 60 {
			sum += s.Rate(t)
			n++
		}
		return sum / float64(n)
	}
	peak := avg(day/8, 3*day/8)     // around sin peak at day/4
	trough := avg(5*day/8, 7*day/8) // around sin trough at 3day/4
	if peak <= trough {
		t.Fatalf("diurnal peak %v not above trough %v", peak, trough)
	}
}

func TestBurstRaisesMean(t *testing.T) {
	sp := openSpec()
	sp.BurstFactor = 3
	sp.CalmResidencySec = 1800
	sp.BurstResidencySec = 1800
	s := MustNew(sp)
	base := MustNew(openSpec())
	// Equal residencies: λ̄ = λ·(1+3)/2 = 2λ.
	if got, want := s.Mean(), 2*base.Mean(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MMPP mean %v, want %v", got, want)
	}
}

func TestFlashCrowdSpikes(t *testing.T) {
	sp := openSpec()
	sp.FlashProb = 0.02
	sp.FlashFactor = 10
	sp.FlashSec = 1200
	s := MustNew(sp)
	base := MustNew(openSpec())
	var peak, basePeak float64
	for sec := int64(0); sec < 7*86400; sec += 60 {
		if r := s.Rate(sec); r > peak {
			peak = r
		}
		if r := base.Rate(sec); r > basePeak {
			basePeak = r
		}
	}
	if peak < 2*basePeak {
		t.Fatalf("flash-crowd peak %v not clearly above baseline peak %v", peak, basePeak)
	}
}

func TestValidation(t *testing.T) {
	bad := []Spec{
		{}, // open without arrivals
		{Model: "weird", ArrivalPerSec: 1, MeanSessionSec: 1, MsgPerSessionSec: 1},
		{Model: Open, ArrivalPerSec: 1, MeanSessionSec: 0, MsgPerSessionSec: 1},
		{Model: Open, ArrivalPerSec: 1, MeanSessionSec: 1, MsgPerSessionSec: 0},
		{Model: Closed, ThinkSec: 1, MeanSessionSec: 1, MsgPerSessionSec: 1},   // no population
		{Model: Closed, Population: 5, MeanSessionSec: 1, MsgPerSessionSec: 1}, // no think
		{Model: Open, ArrivalPerSec: 1, MeanSessionSec: 1, MsgPerSessionSec: 1, Diurnal: 1.5},
		{Model: Open, ArrivalPerSec: 1, MeanSessionSec: 1, MsgPerSessionSec: 1, BurstFactor: 0.5},
		{Model: Open, ArrivalPerSec: 1, MeanSessionSec: 1, MsgPerSessionSec: 1, FlashProb: 2},
	}
	for i, sp := range bad {
		if _, err := New(sp); err == nil {
			t.Errorf("spec %d should fail validation", i)
		}
	}
}

func TestFan(t *testing.T) {
	s := MustNew(openSpec())
	parts, err := Fan(s, []float64{3, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(3600)
	total := parts[0].Rate(at) + parts[1].Rate(at)
	if math.Abs(total-s.Rate(at)) > 1e-9 {
		t.Fatalf("fan parts sum %v != original %v", total, s.Rate(at))
	}
	if parts[0].Rate(at) != 3*parts[1].Rate(at) {
		t.Fatalf("fan weights not respected: %v vs %v", parts[0].Rate(at), parts[1].Rate(at))
	}
	if _, err := Fan(s, []float64{1}, 2); err == nil {
		t.Fatal("mismatched weights should fail")
	}
	if _, err := Fan(s, []float64{-1, 1}, 2); err == nil {
		t.Fatal("negative weight should fail")
	}
	uniform, err := Fan(s, nil, 4)
	if err != nil || len(uniform) != 4 {
		t.Fatalf("uniform fan: %v, %d parts", err, len(uniform))
	}
	if uniform[0].Rate(at) != uniform[3].Rate(at) {
		t.Fatal("uniform fan should split equally")
	}
}

// TestSessionsStepwiseReadsStayLinear reads 100 h session paths minute by
// minute, as a run at 60 s intervals does: an open model with MMPP bursts
// and flash crowds, and a closed model. Past its first 1,024-step block the
// cache must grow geometrically instead of regenerating the path from step
// zero at every step (which cost ~10,000 allocations per path here), and
// every value must be bit-equal to the path generated in one pass.
func TestSessionsStepwiseReadsStayLinear(t *testing.T) {
	const steps = 100 * 60
	bursty := openSpec()
	bursty.BurstFactor, bursty.CalmResidencySec, bursty.BurstResidencySec = 3, 1200, 300
	bursty.FlashProb, bursty.FlashFactor, bursty.FlashSec = 0.01, 2, 300
	closed := Spec{Model: Closed, Population: 60, ThinkSec: 600, MeanSessionSec: 600,
		MsgPerSessionSec: 0.15, Diurnal: 0.5, DiurnalPeriodSec: 36000, Seed: 11}
	for _, spec := range []Spec{bursty, closed} {
		got := make([]float64, steps)
		allocs := testing.AllocsPerRun(1, func() {
			s := MustNew(spec)
			for i := range got {
				got[i] = s.Rate(int64(i) * 60)
			}
		})
		if allocs > 16 {
			t.Fatalf("%s: reading %d steps one by one made %v allocations (limit 16)", spec.Model, steps, allocs)
		}
		onePass := MustNew(spec)
		onePass.Rate((steps - 1) * 60)
		for i, v := range got {
			if want := onePass.Rate(int64(i) * 60); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s step %d: stepwise %v, one pass %v", spec.Model, i, v, want)
			}
		}
	}
}
