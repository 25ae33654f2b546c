package metrics

import "fmt"

// TenantSummary is the per-tenant slice of a Summary for multi-tenant runs:
// the same period-level quantities, computed per dataflow, plus the dollar
// spend the engine attributed to the tenant's core usage.
type TenantSummary struct {
	Name      string  `json:"name"`
	MeanOmega float64 `json:"meanOmega"`
	MinOmega  float64 `json:"minOmega"`
	MeanGamma float64 `json:"meanGamma"`
	// SpendUSD is the tenant's cumulative attributed spend at the final
	// interval.
	SpendUSD float64 `json:"spendUsd"`
}

// SetTenants declares the tenant dimension before the first point arrives.
// Per-tenant rows are appended with AddTenant; WriteCSV then emits
// omega_<name>/gamma_<name>/spend_usd_<name> columns after the fixed set.
func (c *Collector) SetTenants(names []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.points) > 0 || len(c.tOmega) > 0 {
		return fmt.Errorf("metrics: SetTenants after points were collected")
	}
	c.tenants = append([]string(nil), names...)
	return nil
}

// TenantNames returns the declared tenant dimension (nil single-tenant).
func (c *Collector) TenantNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.tenants...)
}

// AddTenant appends one interval's per-tenant row. Call it once after each
// Add, with slices indexed like the names given to SetTenants.
func (c *Collector) AddTenant(omega, gamma, spend []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := len(c.tenants)
	if t == 0 {
		return fmt.Errorf("metrics: AddTenant without SetTenants")
	}
	if len(omega) != t || len(gamma) != t || len(spend) != t {
		return fmt.Errorf("metrics: AddTenant row width %d/%d/%d, want %d",
			len(omega), len(gamma), len(spend), t)
	}
	if len(c.tOmega) != (len(c.points)-1)*t {
		return fmt.Errorf("metrics: AddTenant out of step with Add (%d tenant rows, %d points)",
			len(c.tOmega)/t, len(c.points))
	}
	c.tOmega = append(c.tOmega, omega...)
	c.tGamma = append(c.tGamma, gamma...)
	c.tSpend = append(c.tSpend, spend...)
	return nil
}

// TenantSeries returns copies of the flattened per-tenant series (row-major:
// interval-by-interval, stride len(TenantNames)). Used by checkpointing.
func (c *Collector) TenantSeries() (omega, gamma, spend []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.tOmega...),
		append([]float64(nil), c.tGamma...),
		append([]float64(nil), c.tSpend...)
}

// ImportTenantSeries replaces the per-tenant series wholesale — the restore
// path's counterpart to TenantSeries.
func (c *Collector) ImportTenantSeries(omega, gamma, spend []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := len(c.tenants)
	if t == 0 {
		return fmt.Errorf("metrics: ImportTenantSeries without SetTenants")
	}
	if len(omega) != len(gamma) || len(omega) != len(spend) {
		return fmt.Errorf("metrics: tenant series lengths differ: %d/%d/%d",
			len(omega), len(gamma), len(spend))
	}
	if len(omega) != len(c.points)*t {
		return fmt.Errorf("metrics: tenant series length %d, want %d points x %d tenants",
			len(omega), len(c.points), t)
	}
	// Copy into the series' own arrays, so a reservation survives.
	c.tOmega = append(c.tOmega[:0], omega...)
	c.tGamma = append(c.tGamma[:0], gamma...)
	c.tSpend = append(c.tSpend[:0], spend...)
	return nil
}

// reserveFloats grows s so n more appends stay allocation-free.
func reserveFloats(s []float64, n int) []float64 {
	if free := cap(s) - len(s); free < n {
		grown := make([]float64, len(s), len(s)+n)
		copy(grown, s)
		return grown
	}
	return s
}

// summarizeTenantsLocked reduces the per-tenant series; callers hold c.mu.
func (c *Collector) summarizeTenantsLocked() []TenantSummary {
	t := len(c.tenants)
	rows := 0
	if t > 0 {
		rows = len(c.tOmega) / t
	}
	if rows == 0 {
		return nil
	}
	out := make([]TenantSummary, t)
	for i, name := range c.tenants {
		ts := TenantSummary{Name: name, MinOmega: c.tOmega[i]}
		for r := 0; r < rows; r++ {
			o := c.tOmega[r*t+i]
			ts.MeanOmega += o
			ts.MeanGamma += c.tGamma[r*t+i]
			if o < ts.MinOmega {
				ts.MinOmega = o
			}
		}
		ts.MeanOmega /= float64(rows)
		ts.MeanGamma /= float64(rows)
		ts.SpendUSD = c.tSpend[(rows-1)*t+i]
		out[i] = ts
	}
	return out
}
