package sim

import (
	"context"
	"reflect"
	"testing"

	"dynamicdf/internal/metrics"
)

// TestSummaryOnlyEngine: an engine that keeps no metric rows reports the
// summary a rows-keeping engine reports, cold and restored from a
// rows-keeping engine's checkpoint, while its collector holds no rows, its
// NewEngine reserves no series and its Checkpoint fails.
func TestSummaryOnlyEngine(t *testing.T) {
	summaryOnly := func(cfg Config) Config {
		cfg.SummaryOnly = true
		return cfg
	}
	run := func(t *testing.T, e *Engine, s Scheduler) metrics.Summary {
		t.Helper()
		got, err := e.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	type world struct {
		name  string
		cfg   func() Config
		sched func() Scheduler
	}
	var worlds []world
	for seed := int64(0); seed < 4; seed++ {
		worlds = append(worlds, world{"faults", func() Config { return ckptConfig(t, seed, nil) },
			func() Scheduler { return &ckptSched{} }})
	}
	worlds = append(worlds, world{"tenants", func() Config { return manyTenantConfig(3, 3600) },
		func() Scheduler { return &fixed{deploy: deployEven} }})
	for i, w := range worlds {
		rows, err := NewEngine(w.cfg())
		if err != nil {
			t.Fatal(err)
		}
		want := run(t, rows, w.sched())

		cold, err := NewEngine(summaryOnly(w.cfg()))
		if err != nil {
			t.Fatal(err)
		}
		if got := run(t, cold, w.sched()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %d: summary-only run = %+v, want %+v", w.name, i, got, want)
		}
		omega, _, _ := cold.Collector().TenantSeries()
		if n := cold.Collector().Len(); n != 0 || len(omega) != 0 {
			t.Fatalf("%s %d: summary-only collector holds %d rows and %d tenant cells", w.name, i, n, len(omega))
		}
		if _, err := cold.Checkpoint(); err == nil {
			t.Fatalf("%s %d: a summary-only engine checkpointed", w.name, i)
		}

		prefix, err := NewEngine(w.cfg())
		if err != nil {
			t.Fatal(err)
		}
		cfg := prefix.cfg
		mid := cfg.HorizonSec / cfg.IntervalSec / 2 * cfg.IntervalSec
		if err := prefix.RunUntil(context.Background(), w.sched(), mid); err != nil {
			t.Fatal(err)
		}
		snap, err := prefix.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		fork, err := Restore(snap, summaryOnly(w.cfg()))
		if err != nil {
			t.Fatal(err)
		}
		if got := run(t, fork, w.sched()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %d: summary-only fork at %ds = %+v, want %+v", w.name, i, mid, got, want)
		}
		if n := fork.Collector().Len(); n != 0 {
			t.Fatalf("%s %d: summary-only fork holds %d rows", w.name, i, n)
		}
	}

	// NewEngine reserves the horizon's rows, 600 × 88 B here, only for an
	// engine that keeps them.
	cfg := manyTenantConfig(1, 600*60)
	keep := allocBytes(func() { _, _ = NewEngine(cfg) })
	drop := allocBytes(func() { _, _ = NewEngine(summaryOnly(cfg)) })
	if drop+600*88 > keep {
		t.Fatalf("NewEngine allocates %d bytes summary-only, %d keeping rows", drop, keep)
	}
}
