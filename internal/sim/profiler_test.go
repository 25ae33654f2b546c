package sim

import (
	"testing"

	"dynamicdf/internal/obs"
)

// TestProfilerRecordsStages runs an engine with the stage profiler attached
// and asserts every pipeline stage was sampled once per interval, in
// pipeline order, followed by the scheduler's phases: deploy once, adapt
// before every interval but the first.
func TestProfilerRecordsStages(t *testing.T) {
	cfg := baseConfig(chainGraph(1), 4, 3600)
	cfg.Profiler = obs.NewStageProfiler(nil)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	stats := cfg.Profiler.Snapshot()
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

// TestProfilerAttachedLate covers SetProfiler: attaching after construction
// (dftrace profile, restored engines) must register the stages too.
func TestProfilerAttachedLate(t *testing.T) {
	e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
	if err != nil {
		t.Fatal(err)
	}
	p := obs.NewStageProfiler(nil)
	e.SetProfiler(p)
	if _, err := e.Run(&fixed{deploy: deployEven}); err != nil {
		t.Fatal(err)
	}
	if stats := p.Snapshot(); len(stats) != len(stepStages)+2 || stats[0].Count == 0 {
		t.Fatalf("late-attached profiler recorded nothing: %+v", stats)
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

// BenchmarkEngineStepProfiler measures the per-stage profiling hook. The
// hook/disabled case must report 0 allocs/op — enforced by ci.sh alongside
// the disabled-tracer and disabled-checker guarantees.
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
	for _, profiled := range []bool{false, true} {
		name := "run/profiler=off"
		if profiled {
			name = "run/profiler=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := baseConfig(chainGraph(1), 4, 3600)
				if profiled {
					cfg.Profiler = obs.NewStageProfiler(nil)
				}
				e, err := NewEngine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.Run(&fixed{deploy: deployEven}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
