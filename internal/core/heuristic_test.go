package core

import (
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

// Compile-time checks: every policy satisfies sim.Scheduler.
var (
	_ sim.Scheduler = (*Heuristic)(nil)
	_ sim.Scheduler = (*BruteForce)(nil)
)

func testObjective(t *testing.T, g *dataflow.Graph, rate float64, hours float64) Objective {
	t.Helper()
	o, err := PaperSigma(g, rate, hours)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func runPolicy(t *testing.T, g *dataflow.Graph, p rates.Profile, perf trace.Provider, horizon int64, s sim.Scheduler) (metrics.Summary, *sim.Engine) {
	t.Helper()
	cfg := sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Perf:       perf,
		Inputs:     map[int]rates.Profile{g.Inputs()[0]: p},
		HorizonSec: horizon,
		Seed:       7,
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return sum, e
}

func constProfile(t *testing.T, r float64) rates.Profile {
	t.Helper()
	p, err := rates.NewConstant(r)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewHeuristicValidation(t *testing.T) {
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	if _, err := NewHeuristic(Options{Objective: Objective{}}); err == nil {
		t.Fatal("zero objective accepted")
	}
	if _, err := NewHeuristic(Options{Objective: obj, AlternatePeriod: -1}); err == nil {
		t.Fatal("negative period accepted")
	}
	if _, err := NewHeuristic(Options{Objective: obj, Hysteresis: -1}); err == nil {
		t.Fatal("negative hysteresis accepted")
	}
	if _, err := NewHeuristic(Options{Objective: obj, MaxGrowPerInterval: -2}); err == nil {
		t.Fatal("negative grow accepted")
	}
	h, err := NewHeuristic(Options{Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	if h.opts.AlternatePeriod != 5 {
		t.Fatalf("defaults = %+v", h.opts)
	}
}

func TestHeuristicNames(t *testing.T) {
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	cases := []struct {
		opts Options
		want string
	}{
		{Options{Strategy: Local, Dynamic: true, Adaptive: true, Objective: obj}, "local"},
		{Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj}, "global"},
		{Options{Strategy: Local, Dynamic: true, Adaptive: false, Objective: obj}, "local-static"},
		{Options{Strategy: Global, Dynamic: false, Adaptive: true, Objective: obj}, "global-nodyn"},
		{Options{Strategy: Local, Dynamic: false, Adaptive: false, Objective: obj}, "local-static-nodyn"},
	}
	for _, c := range cases {
		if got := MustHeuristic(c.opts).Name(); got != c.want {
			t.Fatalf("name = %q, want %q", got, c.want)
		}
	}
}

func TestStaticDeployMeetsConstraintWithoutVariability(t *testing.T) {
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 5, 2)
	for _, strat := range []Strategy{Local, Global} {
		h := MustHeuristic(Options{Strategy: strat, Dynamic: true, Adaptive: false, Objective: obj})
		sum, _ := runPolicy(t, g, constProfile(t, 5), trace.NewIdeal(), 2*3600, h)
		if !obj.MeetsConstraint(sum.MeanOmega) {
			t.Fatalf("%v static: omega %.3f misses constraint on ideal cloud", strat, sum.MeanOmega)
		}
	}
}

func TestStaticDeployFailsUnderInfraVariability(t *testing.T) {
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 20, 4)
	perf := trace.MustReplayed(trace.ReplayedConfig{Seed: 5})
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: false, Objective: obj})
	sum, _ := runPolicy(t, g, constProfile(t, 20), perf, 4*3600, h)
	if sum.MeanOmega >= obj.OmegaHat+obj.Epsilon {
		t.Fatalf("static omega %.3f unaffected by infrastructure variability", sum.MeanOmega)
	}
}

func TestAdaptiveMeetsConstraintUnderInfraVariability(t *testing.T) {
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 20, 4)
	perf := trace.MustReplayed(trace.ReplayedConfig{Seed: 5})
	for _, strat := range []Strategy{Local, Global} {
		h := MustHeuristic(Options{Strategy: strat, Dynamic: true, Adaptive: true, Objective: obj})
		sum, _ := runPolicy(t, g, constProfile(t, 20), perf, 4*3600, h)
		if !obj.MeetsConstraint(sum.MeanOmega) {
			t.Fatalf("%v adaptive: omega %.3f misses constraint under infra variability", strat, sum.MeanOmega)
		}
	}
}

func TestAdaptiveMeetsConstraintUnderDataVariability(t *testing.T) {
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 10, 4)
	w, err := rates.NewWave(10, 4, 1200)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Local, Global} {
		h := MustHeuristic(Options{Strategy: strat, Dynamic: true, Adaptive: true, Objective: obj})
		sum, _ := runPolicy(t, g, w, trace.NewIdeal(), 4*3600, h)
		if !obj.MeetsConstraint(sum.MeanOmega) {
			t.Fatalf("%v adaptive: omega %.3f misses constraint under wave load", strat, sum.MeanOmega)
		}
	}
}

func TestDynamismReducesCost(t *testing.T) {
	// The paper's headline: with application dynamism the heuristics pick
	// cheaper alternates under pressure, cutting dollars (~15% for global).
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 20, 10)
	perf := trace.MustReplayed(trace.ReplayedConfig{Seed: 9})
	w, err := rates.NewWave(20, 8, 1800)
	if err != nil {
		t.Fatal(err)
	}
	dyn := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	nodyn := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true, Objective: obj})
	sumDyn, _ := runPolicy(t, g, w, perf, 10*3600, dyn)
	sumNo, _ := runPolicy(t, g, w, perf, 10*3600, nodyn)
	if !obj.MeetsConstraint(sumDyn.MeanOmega) || !obj.MeetsConstraint(sumNo.MeanOmega) {
		t.Fatalf("constraint missed: dyn %.3f nodyn %.3f", sumDyn.MeanOmega, sumNo.MeanOmega)
	}
	if sumDyn.TotalCostUSD >= sumNo.TotalCostUSD {
		t.Fatalf("dynamism did not save: dyn $%.2f vs nodyn $%.2f", sumDyn.TotalCostUSD, sumNo.TotalCostUSD)
	}
}

func TestAdaptiveScalesDownAfterLoadDrop(t *testing.T) {
	// Spike then trough: the fleet must shrink once the spike passes.
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 10, 6)
	base := constProfile(t, 30)
	spike, err := rates.NewSpike(base, 1, 100000, 1) // effectively constant 30
	if err != nil {
		t.Fatal(err)
	}
	_ = spike
	// Use a wave that spends hours high then low.
	w, err := rates.NewWave(20, 15, 4*3600)
	if err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	_, e := runPolicy(t, g, w, trace.NewIdeal(), 6*3600, h)
	pts := e.Collector().Points()
	peak, trough := 0, 1<<30
	for _, p := range pts {
		if p.ActiveVMs > peak {
			peak = p.ActiveVMs
		}
	}
	for _, p := range pts[len(pts)/2:] {
		if p.ActiveVMs < trough {
			trough = p.ActiveVMs
		}
	}
	if trough >= peak {
		t.Fatalf("fleet never shrank: peak %d, later trough %d", peak, trough)
	}
}

func TestBruteForceDeploysAndMeetsConstraint(t *testing.T) {
	g := dataflow.Fig1Graph()
	obj := testObjective(t, g, 5, 2)
	bf, err := NewBruteForce(obj, 2)
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := runPolicy(t, g, constProfile(t, 5), trace.NewIdeal(), 2*3600, bf)
	if !obj.MeetsConstraint(sum.MeanOmega) {
		t.Fatalf("brute force omega %.3f misses constraint", sum.MeanOmega)
	}
	if sum.TotalCostUSD <= 0 {
		t.Fatal("brute force deployed nothing")
	}
}

func TestBruteForceBestThetaAmongStatic(t *testing.T) {
	// On an ideal cloud at constant rate, brute force is the optimal
	// static deployment: its objective value Theta must be at least every
	// static heuristic's (it enumerates their alternate choices too, with
	// a packing at least as cheap).
	g := dataflow.Fig1Graph()
	obj := testObjective(t, g, 10, 2)
	bf, _ := NewBruteForce(obj, 2)
	sumBF, _ := runPolicy(t, g, constProfile(t, 10), trace.NewIdeal(), 2*3600, bf)
	thetaBF := obj.Theta(sumBF.MeanGamma, sumBF.TotalCostUSD)
	for _, strat := range []Strategy{Local, Global} {
		h := MustHeuristic(Options{Strategy: strat, Dynamic: true, Adaptive: false, Objective: obj})
		sum, _ := runPolicy(t, g, constProfile(t, 10), trace.NewIdeal(), 2*3600, h)
		theta := obj.Theta(sum.MeanGamma, sum.TotalCostUSD)
		if thetaBF < theta-1e-9 {
			t.Fatalf("brute force theta %.4f below %v-static %.4f", thetaBF, strat, theta)
		}
	}
	if !obj.MeetsConstraint(sumBF.MeanOmega) {
		t.Fatalf("brute force omega %.3f", sumBF.MeanOmega)
	}
}

func TestBruteForceComboBudget(t *testing.T) {
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 5, 1)
	bf, _ := NewBruteForce(obj, 1)
	bf.MaxCombos = 2 // 25 combos in EvalGraph exceed this
	cfg := sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{0: constProfile(t, 5)},
		HorizonSec: 3600,
	}
	e, _ := sim.NewEngine(cfg)
	if _, err := e.Run(bf); err == nil {
		t.Fatal("combo budget not enforced")
	}
}

func TestNewBruteForceValidation(t *testing.T) {
	if _, err := NewBruteForce(Objective{}, 1); err == nil {
		t.Fatal("bad objective accepted")
	}
	good := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	if _, err := NewBruteForce(good, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestGlobalCheaperThanLocalNoDynAtHighRate(t *testing.T) {
	// Fig. 8's extreme comparison: global (dynamic, repacked) vs local
	// without dynamism (largest VMs, best-value alternates).
	g := dataflow.EvalGraph()
	obj := testObjective(t, g, 35, 6)
	perf := trace.MustReplayed(trace.ReplayedConfig{Seed: 13})
	w, err := rates.NewWave(35, 14, 1800)
	if err != nil {
		t.Fatal(err)
	}
	global := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	localNo := MustHeuristic(Options{Strategy: Local, Dynamic: false, Adaptive: true, Objective: obj})
	sumG, _ := runPolicy(t, g, w, perf, 6*3600, global)
	sumL, _ := runPolicy(t, g, w, perf, 6*3600, localNo)
	if sumG.TotalCostUSD >= sumL.TotalCostUSD {
		t.Fatalf("global $%.2f not cheaper than local-nodyn $%.2f", sumG.TotalCostUSD, sumL.TotalCostUSD)
	}
}
