package rates

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	c, err := NewConstant(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int64{0, 100, 1e6} {
		if c.Rate(sec) != 5 {
			t.Fatalf("Rate(%d) = %v", sec, c.Rate(sec))
		}
	}
	if c.Mean() != 5 || c.Name() != "constant" {
		t.Fatal("metadata wrong")
	}
	if _, err := NewConstant(-1); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestWaveOscillatesAroundMean(t *testing.T) {
	w, err := NewWave(10, 4, 1200)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	minV, maxV := math.Inf(1), math.Inf(-1)
	for sec := int64(0); sec < 1200; sec++ {
		r := w.Rate(sec)
		if r < 0 {
			t.Fatalf("negative rate %v at %d", r, sec)
		}
		sum += r
		n++
		minV = math.Min(minV, r)
		maxV = math.Max(maxV, r)
	}
	if math.Abs(sum/float64(n)-10) > 0.05 {
		t.Fatalf("mean over period = %v", sum/float64(n))
	}
	if maxV < 13.9 || minV > 6.1 {
		t.Fatalf("amplitude not realized: [%v, %v]", minV, maxV)
	}
	if w.Mean() != 10 || w.Name() != "wave" {
		t.Fatal("metadata wrong")
	}
}

func TestWaveValidation(t *testing.T) {
	if _, err := NewWave(-1, 0, 60); err == nil {
		t.Fatal("negative mean accepted")
	}
	if _, err := NewWave(10, 11, 60); err == nil {
		t.Fatal("amplitude > mean accepted")
	}
	if _, err := NewWave(10, 5, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestRandomWalkDeterministicAndBounded(t *testing.T) {
	a, err := NewRandomWalk(10, 0.1, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewRandomWalk(10, 0.1, 60, 42)
	for sec := int64(0); sec < 86400; sec += 60 {
		ra, rb := a.Rate(sec), b.Rate(sec)
		if ra != rb {
			t.Fatalf("walks with same seed diverge at %d: %v vs %v", sec, ra, rb)
		}
		if ra < 0.4*10-1e-9 || ra > 1.6*10+1e-9 {
			t.Fatalf("walk escaped bounds: %v", ra)
		}
	}
}

func TestRandomWalkQueryOrderIndependent(t *testing.T) {
	a, _ := NewRandomWalk(10, 0.1, 60, 7)
	b, _ := NewRandomWalk(10, 0.1, 60, 7)
	// Query a forwards and b backwards; values must agree.
	var fw []float64
	for sec := int64(0); sec <= 6000; sec += 60 {
		fw = append(fw, a.Rate(sec))
	}
	i := len(fw) - 1
	for sec := int64(6000); sec >= 0; sec -= 60 {
		if got := b.Rate(sec); got != fw[i] {
			t.Fatalf("order-dependent at %d: %v vs %v", sec, got, fw[i])
		}
		i--
	}
}

func TestRandomWalkStaysNearMean(t *testing.T) {
	rw, _ := NewRandomWalk(20, 0.1, 60, 3)
	sum, n := 0.0, 0
	for sec := int64(0); sec < 10*86400; sec += 60 {
		sum += rw.Rate(sec)
		n++
	}
	avg := sum / float64(n)
	if math.Abs(avg-20) > 2.5 {
		t.Fatalf("long-run average %v strays from mean 20", avg)
	}
	if rw.Rate(-100) != rw.Rate(0) {
		t.Fatal("negative time should clamp to 0")
	}
}

func TestRandomWalkValidation(t *testing.T) {
	if _, err := NewRandomWalk(-1, 0.1, 60, 0); err == nil {
		t.Fatal("negative mean accepted")
	}
	if _, err := NewRandomWalk(10, 1.5, 60, 0); err == nil {
		t.Fatal("step > 1 accepted")
	}
	if _, err := NewRandomWalk(10, 0.1, 0, 0); err == nil {
		t.Fatal("zero step period accepted")
	}
}

func TestSpike(t *testing.T) {
	base, _ := NewConstant(10)
	s, err := NewSpike(base, 3, 600, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rate(30); got != 30 {
		t.Fatalf("in-burst rate = %v", got)
	}
	if got := s.Rate(120); got != 10 {
		t.Fatalf("off-burst rate = %v", got)
	}
	if got := s.Rate(630); got != 30 {
		t.Fatalf("second burst rate = %v", got)
	}
	wantMean := 10 * (1 + 0.1*2)
	if math.Abs(s.Mean()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", s.Mean(), wantMean)
	}
	if s.Name() != "spike(constant)" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestSpikeValidation(t *testing.T) {
	base, _ := NewConstant(10)
	if _, err := NewSpike(nil, 2, 600, 60); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewSpike(base, 0.5, 600, 60); err == nil {
		t.Fatal("factor < 1 accepted")
	}
	if _, err := NewSpike(base, 2, 60, 600); err == nil {
		t.Fatal("duration > interval accepted")
	}
}

func TestScaled(t *testing.T) {
	base, _ := NewWave(10, 4, 1200)
	s := &Scaled{Base: base, Factor: 0.5}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Rate(0) != base.Rate(0)*0.5 {
		t.Fatal("scale not applied")
	}
	if s.Name() != "wave" {
		t.Fatal("name should pass through")
	}
}

func TestPaperDataRatesSpanPaperRange(t *testing.T) {
	rs := PaperDataRates()
	if rs[0] != 2 || rs[len(rs)-1] != 50 {
		t.Fatalf("rates = %v", rs)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i] <= rs[i-1] {
			t.Fatalf("rates not increasing: %v", rs)
		}
	}
}

func TestPropertyProfilesNonNegative(t *testing.T) {
	f := func(seed int64, secRaw uint32, meanRaw uint16) bool {
		mean := 1 + float64(meanRaw%100)
		sec := int64(secRaw % 864000)
		// The three §8.1 profiles: constant, a wave of 40 % amplitude and
		// a 20 min period, and a walk of 10 % steps each minute.
		c, err := NewConstant(mean)
		if err != nil {
			return false
		}
		w, err := NewWave(mean, 0.4*mean, 1200)
		if err != nil {
			return false
		}
		rw, err := NewRandomWalk(mean, 0.1, 60, seed)
		if err != nil {
			return false
		}
		for _, p := range []Profile{c, w, rw} {
			if p.Rate(sec) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWalkWithinClamp(t *testing.T) {
	f := func(seed int64, secRaw uint32) bool {
		rw, err := NewRandomWalk(10, 0.2, 60, seed)
		if err != nil {
			return false
		}
		r := rw.Rate(int64(secRaw % 864000))
		return r >= 4-1e-9 && r <= 16+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWaveZeroAmplitude: a zero-amplitude wave degenerates to a constant at
// the mean for every instant.
func TestWaveZeroAmplitude(t *testing.T) {
	w, err := NewWave(7, 0, 1800)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int64{0, 450, 900, 86400} {
		if r := w.Rate(sec); r != 7 {
			t.Fatalf("Rate(%d) = %v, want 7", sec, r)
		}
	}
}

// TestRandomWalkZeroStep: with a zero step the walk never leaves the mean —
// mean reversion over a zero deficit contributes nothing.
func TestRandomWalkZeroStep(t *testing.T) {
	rw, err := NewRandomWalk(10, 0, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int64{0, 59, 60, 3600, 864000} {
		if r := rw.Rate(sec); math.Abs(r-10) > 1e-12 {
			t.Fatalf("Rate(%d) = %v, want 10", sec, r)
		}
	}
}

// TestRandomWalkSeedStability: Rate is a pure function of (seed, sec) —
// query order must not matter, equal seeds (including 0) must agree, and
// distinct seeds must diverge.
func TestRandomWalkSeedStability(t *testing.T) {
	for _, seed := range []int64{0, 1, 99} {
		fwd, err := NewRandomWalk(10, 0.2, 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := NewRandomWalk(10, 0.2, 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		secs := []int64{0, 600, 60000, 864000}
		got := make([]float64, len(secs))
		for i, sec := range secs {
			got[i] = fwd.Rate(sec)
		}
		// Reverse query order: the cache must regenerate identically.
		for i := len(secs) - 1; i >= 0; i-- {
			if r := rev.Rate(secs[i]); r != got[i] {
				t.Fatalf("seed %d: Rate(%d) = %v forward, %v reverse", seed, secs[i], r, got[i])
			}
		}
	}
	a, err := NewRandomWalk(10, 0.2, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomWalk(10, 0.2, 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for sec := int64(0); sec < 100*60 && same; sec += 60 {
		same = a.Rate(sec) == b.Rate(sec)
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical walks")
	}
}

// TestRandomWalkStepwiseReadsStayLinear reads a 100 h walk minute by
// minute, as a run at 60 s intervals does. Past its first 1,024-step block
// the cache must grow geometrically instead of regenerating the walk at
// every step (which cost ~10,000 allocations here), and every
// value must be bit-equal to the walk generated in one pass.
func TestRandomWalkStepwiseReadsStayLinear(t *testing.T) {
	const steps = 100 * 60
	got := make([]float64, steps)
	allocs := testing.AllocsPerRun(1, func() {
		rw, err := NewRandomWalk(10, 0.1, 60, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i] = rw.Rate(int64(i) * 60)
		}
	})
	if allocs > 16 {
		t.Fatalf("reading %d steps one by one made %v allocations (limit 16)", steps, allocs)
	}
	onePass, err := NewRandomWalk(10, 0.1, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	onePass.Rate((steps - 1) * 60)
	for i, v := range got {
		if want := onePass.Rate(int64(i) * 60); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("step %d: stepwise %v, one pass %v", i, v, want)
		}
	}
}

// TestRandomWalkSharedPrefix: a walk that starts from a shared prefix of n
// steps (Prefix, Share) returns the bits a fresh walk of the same
// parameters returns at every step up to 3n, whether it is read forward,
// backward or in random order, and never writes the shared slice.
func TestRandomWalkSharedPrefix(t *testing.T) {
	const n = 700 // shorter than ensure's first 1,024-step block
	fresh, err := NewRandomWalk(10, 0.2, 60, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 3*n+1)
	for i := range want {
		want[i] = math.Float64bits(fresh.Rate(int64(i) * 60))
	}
	prefix := fresh.Prefix(n)
	if len(prefix) != n {
		t.Fatalf("Prefix(%d) has %d steps", n, len(prefix))
	}
	kept := append([]float64(nil), prefix...)
	reverse := make([]int, len(want))
	for i := range reverse {
		reverse[i] = len(want) - 1 - i
	}
	shuffled := rand.New(rand.NewSource(7)).Perm(len(want))
	forward := make([]int, len(want))
	for i := range forward {
		forward[i] = i
	}
	for name, order := range map[string][]int{"forward": forward, "reverse": reverse, "random": shuffled} {
		rw, err := NewRandomWalk(10, 0.2, 60, 42)
		if err != nil {
			t.Fatal(err)
		}
		rw.Share(prefix)
		for _, i := range order {
			// Steps inside the prefix and past it, each at a second inside
			// its step too.
			for _, sec := range []int64{int64(i) * 60, int64(i)*60 + 59} {
				if got := math.Float64bits(rw.Rate(sec)); got != want[i] {
					t.Fatalf("%s: Rate(%d) bits %x, fresh walk %x", name, sec, got, want[i])
				}
			}
		}
	}
	for i := range kept {
		if math.Float64bits(prefix[i]) != math.Float64bits(kept[i]) {
			t.Fatalf("shared prefix step %d changed from %v to %v", i, kept[i], prefix[i])
		}
	}
}
