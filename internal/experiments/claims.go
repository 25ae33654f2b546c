package experiments

import (
	"fmt"
	"strings"
)

// Claim is one qualitative statement from the paper's evaluation that the
// reproduction must uphold.
type Claim struct {
	ID        string
	Statement string
	Pass      bool
	Detail    string
}

// Scorecard is the outcome of checking every claim.
type Scorecard struct {
	Claims []Claim
}

// Passed counts satisfied claims.
func (s Scorecard) Passed() int {
	n := 0
	for _, c := range s.Claims {
		if c.Pass {
			n++
		}
	}
	return n
}

// CheckClaims runs the evaluation and verifies the paper's qualitative
// claims programmatically — a reproduction scorecard. It reuses the figure
// runners, so one invocation costs the Figs. 4-8 grids of a dfbench run.
func CheckClaims(c Config) (Scorecard, error) {
	var sc Scorecard
	add := func(id, statement string, pass bool, detail string, args ...any) {
		sc.Claims = append(sc.Claims, Claim{
			ID: id, Statement: statement, Pass: pass, Detail: fmt.Sprintf(detail, args...),
		})
	}

	// Fig. 4 claims.
	f4, err := RunFig4(c)
	if err != nil {
		return sc, err
	}
	noVarAllMeet, anyVarAllMiss := true, true
	var bfTheta, bestOtherTheta float64
	for _, row := range f4.Rows {
		switch row.Scenario {
		case "none":
			if !row.MeetsOmega {
				noVarAllMeet = false
			}
			if row.Policy == "bruteforce-static" {
				bfTheta = row.Theta
			} else if row.Theta > bestOtherTheta {
				bestOtherTheta = row.Theta
			}
		case "both":
			if row.MeetsOmega {
				anyVarAllMiss = false
			}
		}
	}
	add("fig4-static-ok-stable",
		"without variability every static deployment satisfies the throughput constraint",
		noVarAllMeet, "no-variability rows all MET: %v", noVarAllMeet)
	add("fig4-bruteforce-best",
		"without variability the brute-force optimum has the highest objective value",
		bfTheta >= bestOtherTheta, "theta %.4f vs best heuristic %.4f", bfTheta, bestOtherTheta)
	add("fig4-variability-breaks-static",
		"with data and infrastructure variability no static deployment satisfies the constraint",
		anyVarAllMiss, "both-variability rows all MISS: %v", anyVarAllMiss)

	// Fig. 5 claim: static headroom erodes with data rate.
	f5, err := RunFig5(c)
	if err != nil {
		return sc, err
	}
	lowRate, highRate := c.Rates[0], c.Rates[len(c.Rates)-1]
	eroded := true
	for _, policy := range []string{"local-static", "global-static"} {
		var lo, hi float64
		for _, row := range f5.Rows {
			if row.Policy == policy && row.Rate == lowRate {
				lo = row.Omega
			}
			if row.Policy == policy && row.Rate == highRate {
				hi = row.Omega
			}
		}
		if hi > lo+1e-9 {
			eroded = false
		}
	}
	add("fig5-static-erodes",
		"static deployments' throughput headroom shrinks as the data rate grows",
		eroded, "omega at %.0f vs %.0f msg/s non-increasing for both heuristics", lowRate, highRate)

	// Figs. 6-7 claims.
	for _, figCase := range []struct {
		name string
		run  func(Config) (FigAdaptiveResult, error)
	}{{"fig6", RunFig6}, {"fig7", RunFig7}} {
		r, err := figCase.run(c)
		if err != nil {
			return sc, err
		}
		allMeet := true
		theta := map[string]map[float64]float64{"local": {}, "global": {}}
		for _, row := range r.Rows {
			if !row.MeetsOmega {
				allMeet = false
			}
			theta[row.Policy][row.Rate] = row.Theta
		}
		add(figCase.name+"-adaptive-holds",
			"both adaptive heuristics keep the constraint under "+r.Scenario+" variability",
			allMeet, "all rows MET: %v", allMeet)
		globalWins := true
		for _, rate := range c.Rates {
			if rate >= 10 && theta["global"][rate] < theta["local"][rate]-1e-9 {
				globalWins = false
			}
		}
		add(figCase.name+"-global-theta",
			"the global heuristic's objective value is at least the local one's from 10 msg/s up",
			globalWins, "theta(global) >= theta(local) at rates >= 10: %v", globalWins)
	}

	// Figs. 8-9 claims.
	f8, err := RunFig8(c)
	if err != nil {
		return sc, err
	}
	allMeet8 := true
	for _, row := range f8.Rows {
		if !row.MeetsOmega {
			allMeet8 = false
		}
	}
	add("fig8-all-meet",
		"every adaptive variant satisfies the QoS constraint across the rate sweep",
		allMeet8, "all rows MET: %v", allMeet8)
	f9, err := DeriveFig9(f8)
	if err != nil {
		return sc, err
	}
	neverCostsMore, material := true, false
	for _, s := range f9.GlobalSavings {
		if s < -1e-9 {
			neverCostsMore = false
		}
		if s >= 5 {
			material = true
		}
	}
	add("fig9-dynamism-free",
		"application dynamism never increases the global heuristic's dollar cost",
		neverCostsMore, "min saving %.1f%%", minOf(f9.GlobalSavings))
	add("fig9-dynamism-saves",
		"application dynamism saves a material fraction of dollars (paper: ~15%)",
		material, "peak global saving %.1f%%, mean %.1f%%", maxOf(f9.GlobalSavings), f9.MeanGlobalSavings())
	alwaysBeatsExtreme := true
	for _, s := range f9.GlobalVsLocalNoDyn {
		if s < 0 {
			alwaysBeatsExtreme = false
		}
	}
	add("fig9-extreme-direction",
		"global with dynamism is cheaper than local without it at every rate (paper: up to ~70%)",
		alwaysBeatsExtreme, "max gap %.1f%%", f9.MaxGlobalVsLocalNoDyn())

	return sc, nil
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Table renders the scorecard.
func (s Scorecard) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reproduction scorecard — %d/%d of the paper's qualitative claims hold\n",
		s.Passed(), len(s.Claims))
	for _, c := range s.Claims {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "[%s] %-28s %s (%s)\n", mark, c.ID, c.Statement, c.Detail)
	}
	return b.String()
}
