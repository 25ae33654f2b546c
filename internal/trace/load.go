package trace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// NewReplayedFromSeries builds a Replayed provider from already-loaded
// trace pools — the path for replaying *real* cloud measurements instead
// of the synthetic defaults. Any pool left nil falls back to generated
// traces with the package defaults (seeded by seed), so partial real data
// (e.g. CPU only) is usable. Loading either network pool first generates
// both, so the one left generated keeps the samples it always had; with
// CPU alone loaded, the network pools wait for the first network read. A
// loaded bandwidth pool declares a floor of 0.
func NewReplayedFromSeries(cpu, lat, bw []*Series, seed int64) (*Replayed, error) {
	base, err := NewReplayed(ReplayedConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	if len(cpu) > 0 {
		if err := validatePool("cpu", cpu); err != nil {
			return nil, err
		}
		base.cpu = cpu
	}
	if len(lat) > 0 || len(bw) > 0 {
		base.network()
	}
	if len(lat) > 0 {
		if err := validatePool("latency", lat); err != nil {
			return nil, err
		}
		base.lat = lat
	}
	if len(bw) > 0 {
		if err := validatePool("bandwidth", bw); err != nil {
			return nil, err
		}
		base.bw = bw
		base.bwFloor = 0
	}
	return base, nil
}

func validatePool(kind string, pool []*Series) error {
	for i, s := range pool {
		if s == nil || len(s.Samples) == 0 {
			return fmt.Errorf("trace: %s pool entry %d is empty", kind, i)
		}
		if s.PeriodSec <= 0 {
			return fmt.Errorf("trace: %s pool entry %d has period %d", kind, i, s.PeriodSec)
		}
		if err := checkSpan(fmt.Sprintf("%s pool entry %d", kind, i), s.PeriodSec, len(s.Samples)); err != nil {
			return err
		}
		for j, v := range s.Samples {
			if v < 0 {
				return fmt.Errorf("trace: %s pool entry %d sample %d negative (%v)", kind, i, j, v)
			}
		}
	}
	return nil
}

// ErrNoCSVFiles marks a trace directory without any *.csv file.
var ErrNoCSVFiles = errors.New("trace: no .csv files")

// LoadDir reads every *.csv file under dir (sorted by name, so pools are
// deterministic) as one Series per file — the layout `tracegen -out`
// produces and the natural dump format for per-VM monitoring logs. Parse
// failures keep their typed cause (*RowError, ErrShortCSV, ErrNotUniform)
// wrapped under the offending file name.
func LoadDir(dir string) ([]*Series, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(strings.ToLower(e.Name()), ".csv") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoCSVFiles, dir)
	}
	sort.Strings(names)
	pool := make([]*Series, 0, len(names))
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		s, err := ReadCSV(f)
		closeErr := f.Close()
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", name, err)
		}
		if closeErr != nil {
			return nil, closeErr
		}
		pool = append(pool, s)
	}
	return pool, nil
}
