package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// writeRunRows streams the run rows of a figure for external plotting:
// one row per (policy, rate, scenario) with the summary columns.
func writeRunRows(w io.Writer, rows []RunResult) error {
	cw := csv.NewWriter(w)
	header := []string{"policy", "rate", "scenario", "omega", "omega_min", "gamma", "cost_usd", "theta", "meets", "peak_vms"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		rec := []string{
			r.Policy,
			f(r.Rate),
			r.Scenario,
			f(r.Omega),
			f(r.MinOmega),
			f(r.Gamma),
			f(r.CostUSD),
			f(r.Theta),
			strconv.FormatBool(r.MeetsOmega),
			strconv.Itoa(r.PeakVMs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits Fig. 4's rows.
func (r Fig4Result) WriteCSV(w io.Writer) error { return writeRunRows(w, r.Rows) }

// WriteCSV emits Fig. 5's rows.
func (r Fig5Result) WriteCSV(w io.Writer) error { return writeRunRows(w, r.Rows) }

// WriteCSV emits Figs. 6/7's rows.
func (r FigAdaptiveResult) WriteCSV(w io.Writer) error { return writeRunRows(w, r.Rows) }

// WriteCSV emits Fig. 8's rows.
func (r Fig8Result) WriteCSV(w io.Writer) error { return writeRunRows(w, r.Rows) }

// WriteCSV emits Fig. 9's derived savings series.
func (r Fig9Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rate", "global_vs_nodyn_pct", "local_vs_nodyn_pct", "global_vs_local_nodyn_pct"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, rate := range r.Rates {
		rec := []string{f(rate), f(r.GlobalSavings[i]), f(r.LocalSavings[i]), f(r.GlobalVsLocalNoDyn[i])}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the scalability sweep.
func (r ScalabilityResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pes", "alternates", "rate", "peak_vms", "omega", "adapt_mean_us", "adapt_max_us"}); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := []string{
			strconv.Itoa(row.PEs),
			strconv.Itoa(row.Alternates),
			strconv.FormatFloat(row.Rate, 'g', -1, 64),
			strconv.Itoa(row.PeakVMs),
			strconv.FormatFloat(row.MeanOmega, 'g', -1, 64),
			strconv.FormatInt(row.MeanAdapt.Microseconds(), 10),
			strconv.FormatInt(row.MaxAdapt.Microseconds(), 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the ablation comparison.
func (r AblationResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"variant", "omega", "gamma", "cost_usd", "theta", "meets"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range r.Rows {
		rec := []string{
			row.Variant,
			f(row.Summary.MeanOmega),
			f(row.Summary.MeanGamma),
			f(row.Summary.TotalCostUSD),
			f(row.Theta),
			strconv.FormatBool(row.Meets),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits the fault-tolerance comparison.
func (r FaultToleranceResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"policy", "omega", "gamma", "cost_usd", "theta", "meets", "crashes", "lost_messages"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range r.Rows {
		rec := []string{
			row.Policy,
			f(row.Omega),
			f(row.Gamma),
			f(row.CostUSD),
			f(row.Theta),
			strconv.FormatBool(row.MeetsOmega),
			strconv.Itoa(row.Crashes),
			f(row.LostMessages),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
