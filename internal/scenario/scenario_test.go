package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dynamicdf/internal/rates"
	"dynamicdf/internal/trace"
	"dynamicdf/internal/workload"
)

const minimal = `{
  "graph": {
    "pes": [
      {"name": "a", "alternates": [{"name": "x", "value": 1, "cost": 0.2, "selectivity": 1}]},
      {"name": "b", "alternates": [
        {"name": "full", "value": 1, "cost": 1.0, "selectivity": 1},
        {"name": "lite", "value": 0.8, "cost": 0.5, "selectivity": 1}
      ]}
    ],
    "edges": [["a", "b"]]
  },
  "rate": {"kind": "constant", "mean": 5},
  "horizonHours": 1
}`

func TestParseAndBuildMinimal(t *testing.T) {
	sc, err := Parse(strings.NewReader(minimal))
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Graph.N() != 2 {
		t.Fatalf("N = %d", built.Graph.N())
	}
	if built.Scheduler.Name() != "global" {
		t.Fatalf("default policy = %q", built.Scheduler.Name())
	}
	if built.Objective.OmegaHat != 0.7 {
		t.Fatalf("default omega-hat = %v", built.Objective.OmegaHat)
	}
	sum, err := built.Engine.Run(built.Scheduler)
	if err != nil {
		t.Fatal(err)
	}
	if !built.Objective.MeetsConstraint(sum.MeanOmega) {
		t.Fatalf("omega %.3f", sum.MeanOmega)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	for _, in := range []string{
		`{"graph": {"pes": [], "edges": []}, "typoField": 1}`,
		// The retired flow-worker knob must fail loudly, not be ignored.
		`{"flowWorkers": 4}`,
	} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("unknown field accepted: %s", in)
		}
	}
}

// TestParseRejectsTrailingData: a scenario document is one JSON value. A
// second value or junk after it is an error naming what follows, while
// trailing white space stays legal.
func TestParseRejectsTrailingData(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"seed": 1} {"seed": 2}`, `trailing data after offset 11: '{'`},
		{`{"seed": 1} junk`, `trailing data after offset 11: invalid character 'j'`},
		{`{"seed": 1}}`, `trailing data after offset 11: invalid character '}'`},
		{`{"seed": 1} 7`, `trailing data after offset 11: 7`},
		{`{"seed": 1} "x"`, `trailing data after offset 11: "x"`},
		{`{"seed": 1} null`, `trailing data after offset 11: null`},
		{"{\"seed\": 1}\f", `trailing data after offset 11: invalid character '\f'`},
	} {
		if _, err := ParseBytes([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseBytes(%q) error %v, want one containing %q", c.in, err, c.want)
		}
		if _, err := Parse(strings.NewReader(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %v, want one containing %q", c.in, err, c.want)
		}
	}
	sc, err := ParseBytes([]byte("{\"seed\": 1} \n\t\r\n"))
	if err != nil || sc.Seed != 1 {
		t.Fatalf("trailing white space: %+v, %v", sc, err)
	}
}

func TestBuildErrors(t *testing.T) {
	mutate := func(mut func(*Scenario)) error {
		sc, err := Parse(strings.NewReader(minimal))
		if err != nil {
			t.Fatal(err)
		}
		mut(sc)
		_, err = sc.Build()
		return err
	}
	if err := mutate(func(s *Scenario) { s.Rate.Kind = "ghost" }); err == nil {
		t.Fatal("bad rate kind accepted")
	}
	if err := mutate(func(s *Scenario) { s.Infra.Kind = "ghost" }); err == nil {
		t.Fatal("bad infra kind accepted")
	}
	if err := mutate(func(s *Scenario) { s.Policy.Kind = "ghost" }); err == nil {
		t.Fatal("bad policy kind accepted")
	}
	if err := mutate(func(s *Scenario) { s.Spot.PriceFraction = 2 }); err == nil {
		t.Fatal("spot fraction >= 1 accepted")
	}
	if err := mutate(func(s *Scenario) { s.Graph.Edges = append(s.Graph.Edges, [2]string{"a", "ghost"}) }); err == nil {
		t.Fatal("bad edge accepted")
	}
	if err := mutate(func(s *Scenario) { s.OmegaHat = 2 }); err == nil {
		t.Fatal("omega-hat > 1 accepted")
	}
	if err := mutate(func(s *Scenario) { s.Infra = InfraSpec{Kind: "csvdir", Dir: "/nonexistent"} }); err == nil {
		t.Fatal("missing trace dir accepted")
	}
	// Negative fault-model fields used to be ignored or, for the spot MTBF,
	// to make every spot VM immortal. The error must name the field.
	for field, mut := range map[string]func(*Scenario){
		"failureMTBFHours":      func(s *Scenario) { s.FailureMTBFHrs = -2 },
		"spot.priceFraction":    func(s *Scenario) { s.Spot.PriceFraction = -0.5 },
		"spot.preemptMTBFHours": func(s *Scenario) { s.Spot = SpotSpec{PriceFraction: 0.3, PreemptMTBFHours: -1} },
	} {
		if err := mutate(mut); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: err = %v, want an error naming the field", field, err)
		}
	}
	// A replay period whose span over the trace (period × 5,760 samples)
	// overflows an int64 used to build, then panic the run on a wrapped
	// span of 0. The error must name the dimension.
	huge := &GenSpec{Mean: 0.8, Min: 0.5, Max: 1, PeriodSec: 1 << 57}
	for dim, infra := range map[string]InfraSpec{
		"cpu":       {Kind: "replayed", Seed: 1, CPU: huge},
		"latency":   {Kind: "replayed", Seed: 1, Latency: huge},
		"bandwidth": {Kind: "replayed", Seed: 1, Bandwidth: huge},
	} {
		sc, err := Parse(strings.NewReader(minimal))
		if err != nil {
			t.Fatal(err)
		}
		sc.Infra = infra
		built, err := sc.Build()
		if err == nil {
			_, err = built.Engine.Run(built.Scheduler)
			t.Errorf("%s period 2^57 built (run: %v), want an overflow error", dim, err)
		} else if !strings.Contains(err.Error(), dim) || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s period 2^57: err = %v, want an overflow error naming %s", dim, err, dim)
		}
	}
}

// TestBuildWithSharesReplayedPools: scenarios built through one memo share
// the provider of a replayed infra config, while a csvdir scenario of the
// same seed, which writes its loaded traces into its provider, leaves that
// shared provider untouched in either order, network pools included.
func TestBuildWithSharesReplayedPools(t *testing.T) {
	dir := t.TempDir()
	s, err := trace.NewSeries(60, []float64{0.5, 0.6, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "cpu.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := trace.NewReplayed(trace.ReplayedConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	build := func(pools *trace.Pools, infra InfraSpec) trace.Provider {
		t.Helper()
		sc, err := Parse(strings.NewReader(minimal))
		if err != nil {
			t.Fatal(err)
		}
		sc.Infra = infra
		built, err := sc.BuildWith(pools)
		if err != nil {
			t.Fatal(err)
		}
		return built.Config.Perf
	}
	replayed := InfraSpec{Kind: "replayed", Seed: 4}
	csvdir := InfraSpec{Kind: "csvdir", Seed: 4, Dir: dir}
	for _, csvFirst := range []bool{true, false} {
		pools := new(trace.Pools)
		var loaded trace.Provider
		if csvFirst {
			loaded = build(pools, csvdir)
		}
		shared := build(pools, replayed)
		if !csvFirst {
			loaded = build(pools, csvdir)
		}
		if again := build(pools, replayed); again != shared {
			t.Fatal("two builds of one replayed config did not share a provider")
		}
		if loaded == shared {
			t.Fatal("the csvdir build shares the replayed provider")
		}
		// A network read draws both providers' network pools, so the
		// comparison covers them too.
		shared.BandwidthMbps(1, 2, 0)
		fresh.BandwidthMbps(1, 2, 0)
		if !reflect.DeepEqual(shared, trace.Provider(fresh)) {
			t.Fatalf("csvFirst=%v: the shared replayed provider differs from a fresh one", csvFirst)
		}
		switch c := loaded.CPUCoeff(1, 0); c {
		case 0.5, 0.6, 0.7:
		default:
			t.Fatalf("csvdir provider does not replay the loaded trace: coefficient %v", c)
		}
	}
}

func TestBuildVariants(t *testing.T) {
	variants := []func(*Scenario){
		func(s *Scenario) { s.Rate = RateSpec{Kind: "wave", Mean: 5, Amplitude: 2} },
		func(s *Scenario) { s.Rate = RateSpec{Kind: "randomwalk", Mean: 5} },
		func(s *Scenario) { s.Rate = RateSpec{Kind: "wavewalk", Mean: 5} },
		func(s *Scenario) { s.Infra = InfraSpec{Kind: "replayed", Seed: 3} },
		func(s *Scenario) { s.Policy = PolicySpec{Kind: "local"} },
		func(s *Scenario) { s.Policy = PolicySpec{Kind: "bruteforce"} },
		func(s *Scenario) { s.Policy.Static = true },
		func(s *Scenario) {
			s.Spot = SpotSpec{PriceFraction: 0.3}
			s.Policy.UseSpot = true
		},
		func(s *Scenario) { s.FailureMTBFHrs = 2 },
		func(s *Scenario) { s.LatencyHatSec = 60 },
		func(s *Scenario) { s.Audit = true },
	}
	for i, mut := range variants {
		sc, err := Parse(strings.NewReader(minimal))
		if err != nil {
			t.Fatal(err)
		}
		mut(sc)
		built, err := sc.Build()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if _, err := built.Engine.Run(built.Scheduler); err != nil {
			t.Fatalf("variant %d run: %v", i, err)
		}
	}
}

func TestBuildWithChoices(t *testing.T) {
	in := `{
	  "graph": {
	    "pes": [
	      {"name": "in", "alternates": [{"name": "x", "value": 1, "cost": 0.1, "selectivity": 1}]},
	      {"name": "p1", "alternates": [{"name": "x", "value": 1, "cost": 0.5, "selectivity": 1}]},
	      {"name": "p2", "alternates": [{"name": "x", "value": 0.7, "cost": 0.2, "selectivity": 1}]},
	      {"name": "out", "alternates": [{"name": "x", "value": 1, "cost": 0.1, "selectivity": 1}]}
	    ],
	    "edges": [["p1", "out"], ["p2", "out"]]
	  },
	  "choices": [{"name": "route", "from": "in", "targets": ["p1", "p2"]}],
	  "rate": {"kind": "constant", "mean": 4},
	  "horizonHours": 1
	}`
	sc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Graph.Choices) != 1 {
		t.Fatalf("choices = %d", len(built.Graph.Choices))
	}
	if _, err := built.Engine.Run(built.Scheduler); err != nil {
		t.Fatal(err)
	}
}

// TestRateSpecWavewalkDefaults pins the wavewalk lowering: zero amplitude
// defaults to 0.4x the mean, zero step fraction to 0.08, the wave starts at
// its trough, and the walk steps at the adaptation interval.
func TestRateSpecWavewalkDefaults(t *testing.T) {
	r := RateSpec{Kind: "wavewalk", Mean: 10, Seed: 3}
	p, err := r.profile(0)
	if err != nil {
		t.Fatal(err)
	}
	ww, ok := p.(*wavewalk)
	if !ok {
		t.Fatalf("profile = %T", p)
	}
	w, ok := ww.a.(*rates.Wave)
	if !ok {
		t.Fatalf("wave half = %T", ww.a)
	}
	if w.Amplitude != 4 || w.PeriodSec != 1800 || w.PhaseSec != 3*1800/4 {
		t.Fatalf("wave defaults = %+v", w)
	}
	rw, ok := ww.b.(*rates.RandomWalk)
	if !ok {
		t.Fatalf("walk half = %T", ww.b)
	}
	if rw.Step != 0.08 || rw.StepSec != 60 || rw.Seed != 3 {
		t.Fatalf("walk defaults = %+v", rw)
	}
	// A custom adaptation interval re-paces the walk.
	p2, err := r.profile(120)
	if err != nil {
		t.Fatal(err)
	}
	if rw2 := p2.(*wavewalk).b.(*rates.RandomWalk); rw2.StepSec != 120 {
		t.Fatalf("walk step period = %d, want 120", rw2.StepSec)
	}
}

// TestRateSpecSessionsSeedFallback: a sessions block without its own seed
// inherits the rate's, producing the identical stream.
func TestRateSpecSessionsSeedFallback(t *testing.T) {
	spec := workload.Spec{
		Model: workload.Open, ArrivalPerSec: 0.05,
		MeanSessionSec: 300, MsgPerSessionSec: 0.4,
	}
	inherit := RateSpec{Kind: "sessions", Seed: 9, Sessions: &spec}
	explicit := spec
	explicit.Seed = 9
	direct := RateSpec{Kind: "sessions", Sessions: &explicit}
	p1, err := inherit.profile(60)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := direct.profile(60)
	if err != nil {
		t.Fatal(err)
	}
	for sec := int64(0); sec <= 3600; sec += 300 {
		if a, b := p1.Rate(sec), p2.Rate(sec); a != b {
			t.Fatalf("Rate(%d): inherited %v != explicit %v", sec, a, b)
		}
	}
	// The fallback must not mutate the caller's spec.
	if spec.Seed != 0 {
		t.Fatalf("sessions spec mutated: seed = %d", spec.Seed)
	}
}
