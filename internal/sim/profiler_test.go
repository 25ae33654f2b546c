package sim

import (
	"context"
	"testing"

	"dynamicdf/internal/obs"
)

// TestProfilerRecordsStages runs an engine with the stage profiler attached
// after construction (SetProfiler, as dftrace profile and restored engines
// attach it) and asserts every pipeline stage was sampled once per interval,
// in pipeline order, followed by the scheduler's phases: deploy once, adapt
// before every interval but the first.
func TestProfilerRecordsStages(t *testing.T) {
	e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewStageProfiler(nil)
	e.SetProfiler(p)
	sum, err := e.Run(&fixed{deploy: deployEven})
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		name  string
		count int64
	}
	var wants []want
	for _, st := range stepStages {
		wants = append(wants, want{st.name, int64(sum.Intervals)})
	}
	wants = append(wants, want{"deploy", 1}, want{"adapt", int64(sum.Intervals - 1)})
	stats := p.Snapshot()
	if len(stats) != len(wants) {
		t.Fatalf("profiled %d stages, want %d pipeline stages + deploy + adapt", len(stats), len(stepStages))
	}
	for i, s := range stats {
		if s.Name != wants[i].name {
			t.Fatalf("stage %d profiled as %q, want %q", i, s.Name, wants[i].name)
		}
		if s.Count != wants[i].count {
			t.Fatalf("stage %q sampled %d times over %d intervals, want %d", s.Name, s.Count, sum.Intervals, wants[i].count)
		}
	}
}

// TestProfilerAttachedLate covers SetProfiler on an engine restored mid-run
// (dftrace profile on a -restore run): the stages must register, and the
// profiler samples only the resumed intervals, with no deploy.
func TestProfilerAttachedLate(t *testing.T) {
	cfg := baseConfig(chainGraph(1), 4, 3600)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := &fixed{deploy: deployEven}
	if err := e.RunUntil(context.Background(), sched, 1800); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewStageProfiler(nil)
	r.SetProfiler(p)
	if _, err := r.Run(sched); err != nil {
		t.Fatal(err)
	}
	resumed := int64((3600 - 1800) / r.cfg.IntervalSec)
	stats := p.Snapshot()
	if len(stats) != len(stepStages)+2 {
		t.Fatalf("late-attached profiler registered %d stages, want %d: %+v", len(stats), len(stepStages)+2, stats)
	}
	for _, s := range stats {
		want := resumed
		if s.Name == "deploy" {
			want = 0
		}
		if s.Count != want {
			t.Fatalf("stage %q sampled %d times over %d resumed intervals, want %d", s.Name, s.Count, resumed, want)
		}
	}
}

// TestDetachedProfilerZeroAlloc guards the hot path: with no profiler
// attached the per-stage hook must not allocate.
func TestDetachedProfilerZeroAlloc(t *testing.T) {
	e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.profEnd(0, e.profBegin())
	})
	if allocs != 0 {
		t.Fatalf("detached profiler hook allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkEngineStepProfiler measures the per-stage profiling hook with no
// profiler attached. It must report 0 allocs/op — enforced by ci.sh
// alongside the disabled-tracer and disabled-checker guarantees.
func BenchmarkEngineStepProfiler(b *testing.B) {
	b.Run("hook/disabled", func(b *testing.B) {
		e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.profEnd(0, e.profBegin())
		}
	})
}
