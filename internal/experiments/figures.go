package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
	"dynamicdf/internal/trace"
)

// Fig2Result characterizes per-VM CPU performance variability over four
// days (paper Fig. 2): the coefficient series statistics and its relative
// deviation from the mean.
type Fig2Result struct {
	VMs []trace.Stats
	// Deviation summarizes the pooled relative-deviation distribution.
	Deviation trace.Stats
}

// RunFig2 generates the four-day CPU traces for n VMs and characterizes
// them.
func RunFig2(seed int64, n int) (Fig2Result, error) {
	if n <= 0 {
		n = 8
	}
	cfg := trace.DefaultCPUConfig()
	rng := rand.New(rand.NewSource(seed))
	var out Fig2Result
	var pooled []float64
	for i := 0; i < n; i++ {
		s, err := cfg.Generate(rng, trace.FourDays)
		if err != nil {
			return Fig2Result{}, err
		}
		out.VMs = append(out.VMs, trace.Characterize(s))
		pooled = append(pooled, trace.RelativeDeviation(s).Samples...)
	}
	dev, err := trace.NewSeries(cfg.PeriodSec, pooled)
	if err != nil {
		return Fig2Result{}, err
	}
	out.Deviation = trace.Characterize(dev)
	return out, nil
}

// Table renders Fig. 2 as text rows.
func (r Fig2Result) Table() string {
	var b strings.Builder
	b.WriteString("Fig 2 — VM CPU performance variability (4-day synthetic traces)\n")
	b.WriteString("vm   mean    sd      CoV    min    p50    max    maxRelDev\n")
	for i, s := range r.VMs {
		fmt.Fprintf(&b, "%-4d %.4f  %.4f  %.3f  %.3f  %.3f  %.3f  %5.1f%%\n",
			i, s.Mean, s.Stddev, s.CoV, s.Min, s.P50, s.Max, s.MaxAbsRelDev*100)
	}
	extreme := r.Deviation.Max
	if -r.Deviation.Min > extreme {
		extreme = -r.Deviation.Min
	}
	fmt.Fprintf(&b, "pooled relative deviation: p5=%+.1f%% p50=%+.1f%% p95=%+.1f%% extreme=%.1f%%\n",
		r.Deviation.P5*100, r.Deviation.P50*100, r.Deviation.P95*100, extreme*100)
	return b.String()
}

// Fig3Result characterizes pairwise network latency and bandwidth
// variability (paper Fig. 3).
type Fig3Result struct {
	Latency   trace.Stats
	Bandwidth trace.Stats
}

// RunFig3 generates the four-day network traces for one VM pair.
func RunFig3(seed int64) (Fig3Result, error) {
	rng := rand.New(rand.NewSource(seed))
	lat, err := trace.DefaultLatencyConfig().Generate(rng, trace.FourDays)
	if err != nil {
		return Fig3Result{}, err
	}
	bw, err := trace.DefaultBandwidthConfig().Generate(rng, trace.FourDays)
	if err != nil {
		return Fig3Result{}, err
	}
	return Fig3Result{Latency: trace.Characterize(lat), Bandwidth: trace.Characterize(bw)}, nil
}

// Table renders Fig. 3 as text rows.
func (r Fig3Result) Table() string {
	var b strings.Builder
	b.WriteString("Fig 3 — network variability between a VM pair (4-day synthetic traces)\n")
	fmt.Fprintf(&b, "latency:   mean=%.2fms sd=%.2fms p95=%.2fms max=%.2fms\n",
		r.Latency.Mean*1000, r.Latency.Stddev*1000, r.Latency.P95*1000, r.Latency.Max*1000)
	fmt.Fprintf(&b, "bandwidth: mean=%.1fMbps sd=%.1fMbps p5=%.1fMbps min=%.1fMbps\n",
		r.Bandwidth.Mean, r.Bandwidth.Stddev, r.Bandwidth.P5, r.Bandwidth.Min)
	return b.String()
}

// runGrid runs a figure's grid on the campaign engine and returns one row
// per job, in the figure's order. A figure grid sweeps its policies on its
// first axis, while a figure lists every policy under each of its other
// coordinates, so the rows are the jobs transposed. It takes what a Grid
// function returns as it is, so that function's error comes back unchanged.
func runGrid(spec *sweep.Spec, err error) ([]RunResult, error) {
	if err != nil {
		return nil, err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	rep, err := new(sweep.Engine).RunCampaign(context.Background(), spec, jobs, sweep.RunOpts{})
	if err != nil {
		return nil, err
	}
	policies := spec.Axes[0].Values
	per := len(jobs) / len(policies)
	rows := make([]RunResult, 0, len(jobs))
	for k := range jobs {
		p := k % len(policies)
		i := p*per + k/len(policies)
		res := rep.Results[i]
		if res.Error != "" {
			return nil, fmt.Errorf("experiments: %s job %s: %s", spec.Name, res.JobID, res.Error)
		}
		sc := jobs[i].Scenario
		rows = append(rows, RunResult{Policy: policies[p].Label, Rate: sc.Rate.Mean, Scenario: variabilityOf(sc), Result: res})
	}
	return rows, nil
}

// variabilityOf names the §8 dynamism a scenario enables (see
// Config.variability).
func variabilityOf(sc *scenario.Scenario) string {
	data, infra := sc.Rate.Kind == "wavewalk", sc.Infra.Kind == "replayed"
	switch {
	case data && infra:
		return "both"
	case data:
		return "data"
	case infra:
		return "infra"
	}
	return "none"
}

// Fig4Result compares static deployments under the four variability
// scenarios at a fixed 5 msg/s (paper Fig. 4).
type Fig4Result struct {
	Rows []RunResult
}

// RunFig4 executes {bruteforce, local-static, global-static} x {none, data,
// infra, both} at 5 msg/s.
func RunFig4(c Config) (Fig4Result, error) {
	rows, err := runGrid(GridFig4(c, 1))
	return Fig4Result{Rows: rows}, err
}

// Table renders Fig. 4.
func (r Fig4Result) Table() string {
	return rowsTable("Fig 4 — relative throughput of static deployments under variability (5 msg/s, omega-hat 0.7)", r.Rows)
}

// rowsTable renders a title line and one line per row.
func rowsTable(title string, rows []RunResult) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for _, row := range rows {
		b.WriteString(row.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig5Result shows static deployments across data rates without
// variability (paper Fig. 5).
type Fig5Result struct {
	Rows []RunResult
}

// RunFig5 sweeps the configured rates for the three static policies.
func RunFig5(c Config) (Fig5Result, error) {
	rows, err := runGrid(GridFig5(c, 1))
	return Fig5Result{Rows: rows}, err
}

// Table renders Fig. 5.
func (r Fig5Result) Table() string {
	return rowsTable("Fig 5 — relative throughput of static deployments vs data rate (no variability)", r.Rows)
}

// FigAdaptiveResult compares the adaptive local and global heuristics
// across data rates under one variability scenario (paper Figs. 6 and 7).
type FigAdaptiveResult struct {
	// Scenario names the variability: infra (Fig. 6) or data (Fig. 7).
	Scenario string
	Rows     []RunResult
}

// RunFig6 compares local vs global adaptation under infrastructure
// variability.
func RunFig6(c Config) (FigAdaptiveResult, error) {
	return runAdaptive(c, "infra")
}

// RunFig7 compares local vs global adaptation under data-rate variability
// on a steady cloud ("a local cluster or an exclusive private cloud").
func RunFig7(c Config) (FigAdaptiveResult, error) {
	return runAdaptive(c, "data")
}

// runAdaptive runs the Figs. 6-7 grid's cells of one variability.
func runAdaptive(c Config, variability string) (FigAdaptiveResult, error) {
	rows, err := runGrid(c.adaptiveGrid(1, variability))
	return FigAdaptiveResult{Scenario: variability, Rows: rows}, err
}

// Table renders Figs. 6/7.
func (r FigAdaptiveResult) Table() string {
	fig := "Fig 6"
	if r.Scenario == "data" {
		fig = "Fig 7"
	}
	return rowsTable(fmt.Sprintf("%s — local vs global adaptive heuristics (%s variability): omega and theta vs rate", fig, r.Scenario), r.Rows)
}

// Fig8Result records dollars spent over the horizon per heuristic per rate
// (paper Fig. 8).
type Fig8Result struct {
	Rows []RunResult
}

// RunFig8 sweeps {global, global-nodyn, local, local-nodyn} across rates
// with both variabilities active, as the paper's 10-hour cost comparison.
func RunFig8(c Config) (Fig8Result, error) {
	rows, err := runGrid(GridFig8(c, 1))
	return Fig8Result{Rows: rows}, err
}

// Table renders Fig. 8.
func (r Fig8Result) Table() string {
	return rowsTable("Fig 8 — dollar cost over the optimization period vs data rate (both variabilities)", r.Rows)
}

// Fig9Result derives the cost benefit of application dynamism (paper
// Fig. 9): percentage savings of each strategy with dynamism against the
// same strategy without it.
type Fig9Result struct {
	Rates         []float64
	GlobalSavings []float64 // percent
	LocalSavings  []float64 // percent
	// GlobalVsLocalNoDyn is the paper's headline extreme comparison.
	GlobalVsLocalNoDyn []float64 // percent
}

// DeriveFig9 computes savings percentages from Fig. 8 rows.
func DeriveFig9(f8 Fig8Result) (Fig9Result, error) {
	cost := map[string]map[float64]float64{}
	var rs []float64
	seen := map[float64]bool{}
	for _, row := range f8.Rows {
		if cost[row.Policy] == nil {
			cost[row.Policy] = map[float64]float64{}
		}
		cost[row.Policy][row.Rate] = row.CostUSD
		if !seen[row.Rate] {
			seen[row.Rate] = true
			rs = append(rs, row.Rate)
		}
	}
	out := Fig9Result{Rates: rs}
	for _, rate := range rs {
		g, gn := cost["global"][rate], cost["global-nodyn"][rate]
		l, ln := cost["local"][rate], cost["local-nodyn"][rate]
		if gn <= 0 || ln <= 0 {
			return Fig9Result{}, fmt.Errorf("experiments: fig9 missing costs at rate %v", rate)
		}
		out.GlobalSavings = append(out.GlobalSavings, 100*(gn-g)/gn)
		out.LocalSavings = append(out.LocalSavings, 100*(ln-l)/ln)
		out.GlobalVsLocalNoDyn = append(out.GlobalVsLocalNoDyn, 100*(ln-g)/ln)
	}
	return out, nil
}

// MeanGlobalSavings averages the global-strategy dynamism savings — the
// paper reports ~15%.
func (r Fig9Result) MeanGlobalSavings() float64 {
	if len(r.GlobalSavings) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range r.GlobalSavings {
		s += v
	}
	return s / float64(len(r.GlobalSavings))
}

// MaxGlobalVsLocalNoDyn is the paper's "savings of up to 70%" comparison.
func (r Fig9Result) MaxGlobalVsLocalNoDyn() float64 {
	best := 0.0
	for _, v := range r.GlobalVsLocalNoDyn {
		if v > best {
			best = v
		}
	}
	return best
}

// Table renders Fig. 9.
func (r Fig9Result) Table() string {
	var b strings.Builder
	b.WriteString("Fig 9 — dollar-cost benefit of application dynamism with continuous re-deployment\n")
	b.WriteString("rate   global-vs-nodyn   local-vs-nodyn   global-vs-local-nodyn\n")
	for i, rate := range r.Rates {
		fmt.Fprintf(&b, "%4.0f   %+14.1f%%   %+13.1f%%   %+20.1f%%\n",
			rate, r.GlobalSavings[i], r.LocalSavings[i], r.GlobalVsLocalNoDyn[i])
	}
	fmt.Fprintf(&b, "mean global dynamism savings: %.1f%% (paper: ~15%%); max vs local-nodyn: %.1f%% (paper: up to ~70%%)\n",
		r.MeanGlobalSavings(), r.MaxGlobalVsLocalNoDyn())
	return b.String()
}

// VMClassTable renders the VM menu the evaluation uses (§8.1's instance
// types).
func VMClassTable() string {
	var b strings.Builder
	b.WriteString("VM classes (2013 AWS on-demand menu)\n")
	b.WriteString("class       cores  ECU/core  net(Mbps)  $/hour\n")
	for _, c := range cloud.AWS2013Classes() {
		fmt.Fprintf(&b, "%-11s %5d  %8.1f  %9.0f  %6.2f\n",
			c.Name, c.Cores, c.CoreSpeed, c.NetMbps, c.PricePerHour)
	}
	return b.String()
}
