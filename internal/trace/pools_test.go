package trace

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// referenceGenerate is Generate as it was before the diurnal term was
// tabulated, computing math.Sin per sample: the oracle for the table.
func referenceGenerate(c GenConfig, rng *rand.Rand, n int) []float64 {
	dt := float64(c.PeriodSec)
	sqrtDt := math.Sqrt(dt)
	x := c.Mean
	regime := 0.0
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		if c.RegimeProb > 0 && rng.Float64() < c.RegimeProb {
			regime = (rng.Float64()*2 - 1) * c.RegimeAmp
		}
		target := c.Mean + regime
		x += c.Theta*(target-x)*dt + c.Sigma*sqrtDt*rng.NormFloat64()
		v := x
		if c.DiurnalAmp != 0 {
			t := float64(int64(i) * c.PeriodSec)
			v += c.DiurnalAmp * math.Sin(2*math.Pi*t/86400)
		}
		if v < c.Min {
			v = c.Min
		}
		if v > c.Max {
			v = c.Max
		}
		out[i] = v
	}
	return out
}

// referenceReplayed generates a provider's pools the way NewReplayed did
// before the table, from a resolved config.
func referenceReplayed(cfg ReplayedConfig) (cpu, lat, bw [][]float64) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.CPUTraces; i++ {
		cpu = append(cpu, referenceGenerate(cfg.CPU, rng, cfg.Samples))
	}
	for i := 0; i < cfg.NetTraces; i++ {
		lat = append(lat, referenceGenerate(cfg.Latency, rng, cfg.Samples))
		bw = append(bw, referenceGenerate(cfg.Bandwidth, rng, cfg.Samples))
	}
	return cpu, lat, bw
}

func sameBits(t *testing.T, what string, got *Series, want []float64, period int64) {
	t.Helper()
	if got.PeriodSec != period || len(got.Samples) != len(want) {
		t.Fatalf("%s: period %d, %d samples; want %d, %d", what, got.PeriodSec, len(got.Samples), period, len(want))
	}
	for i, v := range got.Samples {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sample %d = %v (%#x), reference %v (%#x)",
				what, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
		}
	}
}

// samePools generates p's network pools and compares all three with the
// reference, bit for bit.
func samePools(t *testing.T, what string, p *Replayed, cfg ReplayedConfig) {
	t.Helper()
	cfg = cfg.resolved()
	cpu, lat, bw := referenceReplayed(cfg)
	pLat, pBw := p.network()
	if len(p.cpu) != len(cpu) || len(pLat) != len(lat) || len(pBw) != len(bw) {
		t.Fatalf("%s: pool sizes %d/%d/%d, want %d/%d/%d", what,
			len(p.cpu), len(pLat), len(pBw), len(cpu), len(lat), len(bw))
	}
	for i := range cpu {
		sameBits(t, what+" cpu", p.cpu[i], cpu[i], cfg.CPU.PeriodSec)
	}
	for i := range lat {
		sameBits(t, what+" latency", pLat[i], lat[i], cfg.Latency.PeriodSec)
		sameBits(t, what+" bandwidth", pBw[i], bw[i], cfg.Bandwidth.PeriodSec)
	}
}

// randomGenConfig draws a valid generator config, biased towards the edge
// cases of the diurnal table: no diurnal term, periods other than 60,
// regime shifts never or every sample.
func randomGenConfig(rng *rand.Rand) GenConfig {
	lo := rng.NormFloat64() * 10
	hi := lo + rng.ExpFloat64()*5
	c := GenConfig{
		Min: lo, Max: hi, Mean: lo + rng.Float64()*(hi-lo),
		Theta: rng.ExpFloat64() * 0.01, Sigma: rng.ExpFloat64() * 0.2,
		RegimeProb: rng.Float64() * 0.05, RegimeAmp: rng.ExpFloat64(),
		DiurnalAmp: rng.NormFloat64(),
		PeriodSec:  []int64{1, 7, 60, 61, 300, 3600, 86400, 100003}[rng.Intn(8)],
	}
	switch rng.Intn(6) {
	case 0:
		c.DiurnalAmp = 0
	case 1:
		c.RegimeProb = 0
	case 2:
		c.RegimeProb = 1
	}
	return c
}

// TestGenerateMatchesReference pins the tabulated diurnal term to the
// per-sample math.Sin it replaced, and the network pools generated on first
// read to the eager generation, bit for bit: NewReplayed on default pools
// over many seeds, Generate and NewReplayed on random configs and sample
// counts that are not whole days.
func TestGenerateMatchesReference(t *testing.T) {
	for seed := int64(-3); seed < 21; seed++ {
		cfg := ReplayedConfig{Seed: seed * 7919}
		p, err := NewReplayed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		samePools(t, "default", p, cfg)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200; k++ {
		gen := randomGenConfig(rng)
		if err := gen.Validate(); err != nil {
			t.Fatalf("config %d invalid: %v", k, err)
		}
		n := 1 + rng.Intn(3000)
		seed := rng.Int63()
		s, err := gen.Generate(rand.New(rand.NewSource(seed)), n)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "Generate", s, referenceGenerate(gen, rand.New(rand.NewSource(seed)), n), gen.PeriodSec)

		cfg := ReplayedConfig{
			CPUTraces: 1 + rng.Intn(3), NetTraces: 1 + rng.Intn(3), Samples: n,
			CPU: gen, Latency: randomGenConfig(rng), Seed: seed,
		}
		if rng.Intn(2) == 0 {
			cfg.Bandwidth = randomGenConfig(rng)
		}
		p, err := NewReplayed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		samePools(t, "NewReplayed", p, cfg)
	}
}

// TestPoolsConcurrent has 16 goroutines ask one memo for three configs at
// once (one of them invalid): every caller of a config gets the same
// provider, equal to a fresh one, and the invalid config's error reaches
// every caller.
func TestPoolsConcurrent(t *testing.T) {
	bad := DefaultCPUConfig()
	bad.Mean = 2 // above Max
	cfgs := []ReplayedConfig{
		{Seed: 3},
		{Seed: 4, Samples: 1000, NetTraces: 2},
		{Seed: 3, CPU: bad},
	}
	var ps Pools
	const callers = 16
	got := make([][]*Replayed, len(cfgs))
	errs := make([][]error, len(cfgs))
	for i := range cfgs {
		got[i] = make([]*Replayed, callers)
		errs[i] = make([]error, callers)
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cfgs {
				i := (g + k) % len(cfgs)
				got[i][g], errs[i][g] = ps.Replayed(cfgs[i])
			}
		}(g)
	}
	wg.Wait()
	for i, cfg := range cfgs {
		fresh, freshErr := NewReplayed(cfg)
		for g := 0; g < callers; g++ {
			if (errs[i][g] == nil) != (freshErr == nil) {
				t.Fatalf("config %d caller %d: err %v, fresh err %v", i, g, errs[i][g], freshErr)
			}
			if freshErr != nil {
				if errs[i][g].Error() != freshErr.Error() {
					t.Fatalf("config %d caller %d: err %q, want %q", i, g, errs[i][g], freshErr)
				}
				continue
			}
			if got[i][g] != got[i][0] {
				t.Fatalf("config %d: callers 0 and %d got different providers", i, g)
			}
		}
		if freshErr == nil && !reflect.DeepEqual(got[i][0], fresh) {
			t.Fatalf("config %d: memoized provider differs from a fresh one", i)
		}
	}
	if len(ps.byKey) != len(cfgs) {
		t.Fatalf("memo holds %d entries, want %d", len(ps.byKey), len(cfgs))
	}
}

// TestPoolsKeys checks which configs share a pool: only those equal once
// defaults are applied, with floats compared by their bits.
func TestPoolsKeys(t *testing.T) {
	var ps Pools
	get := func(cfg ReplayedConfig) *Replayed {
		t.Helper()
		p, err := ps.Replayed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := get(ReplayedConfig{Seed: 9})
	if get(ReplayedConfig{Seed: 9, CPUTraces: 8, Samples: FourDays, CPU: DefaultCPUConfig()}) != base {
		t.Fatal("explicit defaults did not reuse the defaulted pool")
	}
	if get(ReplayedConfig{Seed: 10}) == base {
		t.Fatal("another seed reused the pool")
	}
	negZero := DefaultLatencyConfig()
	negZero.DiurnalAmp = math.Copysign(0, -1)
	posZero := DefaultLatencyConfig()
	posZero.DiurnalAmp = 0
	if get(ReplayedConfig{Seed: 9, Latency: negZero}) == get(ReplayedConfig{Seed: 9, Latency: posZero}) {
		t.Fatal("a -0 parameter reused the +0 pool")
	}
	nan := DefaultBandwidthConfig()
	nan.Theta = math.NaN()
	if a := get(ReplayedConfig{Seed: 9, Bandwidth: nan}); get(ReplayedConfig{Seed: 9, Bandwidth: nan}) != a {
		t.Fatal("a NaN parameter did not find its own pool")
	}
	// The key spells out every field; a new one must join it.
	if n := reflect.TypeOf(GenConfig{}).NumField(); n != 9 {
		t.Fatalf("GenConfig has %d fields; extend genKey", n)
	}
	if n := reflect.TypeOf(ReplayedConfig{}).NumField(); n != 7 {
		t.Fatalf("ReplayedConfig has %d fields; extend poolKey", n)
	}

	var none *Pools
	a, err := none.Replayed(ReplayedConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := none.Replayed(ReplayedConfig{Seed: 9}); a == b || !reflect.DeepEqual(a, b) {
		t.Fatal("a nil memo must generate a fresh, equal provider per call")
	}
}

// TestNewReplayedRejectsSpanOverflow: a period whose span over the samples
// exceeds an int64 used to wrap Duration to 0 and panic replay lookups.
func TestNewReplayedRejectsSpanOverflow(t *testing.T) {
	huge := func(g GenConfig) GenConfig {
		g.PeriodSec = 1 << 57 // × 5,760 samples wraps to 0
		return g
	}
	for kind, cfg := range map[string]ReplayedConfig{
		"cpu":       {Seed: 1, CPU: huge(DefaultCPUConfig())},
		"latency":   {Seed: 1, Latency: huge(DefaultLatencyConfig())},
		"bandwidth": {Seed: 1, Bandwidth: huge(DefaultBandwidthConfig())},
	} {
		if _, err := NewReplayed(cfg); err == nil || !strings.Contains(err.Error(), kind) {
			t.Errorf("%s period 2^57: err = %v, want an overflow error naming %s", kind, err, kind)
		}
	}
	// The largest period that fits is accepted and replays.
	gen := DefaultCPUConfig()
	gen.PeriodSec = math.MaxInt64 / 100
	p, err := NewReplayed(ReplayedConfig{Seed: 1, Samples: 100, CPU: gen})
	if err != nil {
		t.Fatal(err)
	}
	_ = p.CPUCoeff(3, 1<<40)

	s, _ := NewSeries(1<<62, []float64{1, 1})
	if _, err := NewReplayedFromSeries([]*Series{s}, nil, nil, 1); err == nil {
		t.Fatal("loaded trace with an overflowing span accepted")
	}
}

// BenchmarkNewReplayed builds one default provider of 5,760-sample traces:
// /cpu is construction, which generates the 8 CPU traces; /network adds the
// first network read, which generates the 8 latency and 8 bandwidth traces,
// so it is the whole pool.
func BenchmarkNewReplayed(b *testing.B) {
	for _, read := range []struct {
		name    string
		network bool
	}{{"cpu", false}, {"network", true}} {
		b.Run(read.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := NewReplayed(ReplayedConfig{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				if read.network {
					p.BandwidthMbps(1, 2, 0)
				}
			}
		})
	}
}
