package sim

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynamicdf/internal/invariant"
	"dynamicdf/internal/obs"
)

// traceChaos runs the chaos scenario with a tracer attached and returns the
// raw NDJSON stream.
func traceChaos(t *testing.T) []byte {
	t.Helper()
	cfg := chaosConfig(t)
	cfg.OmegaFloor = 0.99 // the chaos scenario degrades; force violations
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	e.SetTracer(tracer)
	if _, err := e.Run(&fixed{deploy: chaosRepair, adapt: chaosRepair}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteIdenticalAcrossRuns is the tracing analogue of the audit-log
// determinism test: under a fixed seed the full event stream — spans,
// scheduler actions, fault consequences, QoS violations — must render to
// identical bytes every run.
func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	a, b := traceChaos(t), traceChaos(t)
	if !bytes.Equal(a, b) {
		t.Fatal("identical configs produced different event streams")
	}
	events, err := obs.ReadEvents(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("stream does not parse: %v", err)
	}
	byType := map[string]int{}
	for _, ev := range events {
		byType[ev.Type+":"+ev.Phase]++
	}
	// With provisioning delays every acquisition goes pending first, so the
	// stream carries pending-vm/vm-ready pairs rather than acquire-vm.
	for _, want := range []string{
		"run:start", "run:end", "step:start", "step:end",
		"select-alternate:init", "pending-vm:", "vm-ready:",
		"acquire-failed:", "crash:", "omega-violation:",
	} {
		if byType[want] == 0 {
			t.Fatalf("stream lacks %q events; counts: %v", want, byType)
		}
	}
	intervals := chaosConfig(t).HorizonSec / 60 // default IntervalSec
	if got := byType["step:start"]; int64(got) != intervals {
		t.Fatalf("%d step spans for %d intervals", got, intervals)
	}
}

// TestTracerAndAuditAgree: the audit log must be the scheduler-action
// subset of the trace, so the two views of one run stay correlatable.
func TestTracerAndAuditAgree(t *testing.T) {
	e, err := NewEngine(chaosConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	e.SetTracer(tracer)
	if _, err := e.Run(&fixed{deploy: chaosRepair, adapt: chaosRepair}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var traced []string
	for _, ev := range events {
		switch ev.Type {
		case obs.EventRun, obs.EventStep, obs.EventOmegaViolation:
			continue
		}
		if ev.Phase == obs.PhaseInit {
			continue
		}
		traced = append(traced, ev.String())
	}
	audit := e.AuditLog()
	if len(audit) == 0 {
		t.Fatal("audit log empty")
	}
	if len(traced) != len(audit) {
		t.Fatalf("%d traced actions vs %d audit entries", len(traced), len(audit))
	}
	for i, entry := range audit {
		if got := entry.event().String(); traced[i] != got {
			t.Fatalf("action %d: trace %q vs audit %q", i, traced[i], got)
		}
	}
}

// TestAuditJSONLUnchangedByMigration pins the legacy audit wire format: the
// obs.Event-backed storage must encode exactly the bytes the original
// AuditEntry encoder produced.
func TestAuditJSONLUnchangedByMigration(t *testing.T) {
	cfg := baseConfig(chainGraph(1), 4, 3600)
	cfg.Audit = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&fixed{deploy: deployEven}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteAuditJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	if !strings.Contains(first, `"action":"acquire-vm"`) {
		t.Fatalf("audit JSONL missing acquire-vm action:\n%s", first)
	}
	if strings.Contains(first, `"type"`) || strings.Contains(first, `"v"`) {
		t.Fatalf("audit JSONL leaks obs.Event fields:\n%s", first)
	}
}

// TestDisabledTracerZeroAlloc guards the hot path: with no tracer attached,
// the engine's trace hook must not allocate.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.trace(obs.Event{Type: obs.EventStep, Phase: obs.PhaseStart, Value: 0.5})
		e.audit(AuditEntry{Action: "assign-cores", PE: 1, VM: 2, N: 3})
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer hooks allocate %.1f/op, want 0", allocs)
	}
}

// TestOmegaViolationWithoutTracerZeroAlloc: an interval whose Ω is below
// the run's floor and a tenant's Ω below the tenant's floor allocates
// nothing while no tracer is attached; the violation events, which format
// their floor, are built only for a tracer.
func TestOmegaViolationWithoutTracerZeroAlloc(t *testing.T) {
	cfg := twoTenantConfig(5, 5, 24*3600)
	cfg.OmegaFloor = 0.99
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant b starves, and so the run's Ω is ~0.5.
	if err := e.RunUntil(context.Background(), &fixed{deploy: deployTenantA}, 0); err != nil {
		t.Fatal(err)
	}
	e.Collector().Reserve(200)
	step := func() {
		if err := e.step(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if c := &e.ctx; c.omega >= cfg.OmegaFloor || c.tenOmega[1] >= cfg.Tenants[1].OmegaFloor {
		t.Fatalf("interval not below its floors: Ω %v, tenant b Ω %v", c.omega, c.tenOmega[1])
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("an interval below its Ω floors allocates %v objects with no tracer, want 0", allocs)
	}
}

// BenchmarkEngineStep measures the trace hook with tracing disabled. It
// must report 0 allocs/op — the guarantee ci.sh enforces.
func BenchmarkEngineStep(b *testing.B) {
	b.Run("hook/disabled", func(b *testing.B) {
		e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.trace(obs.Event{Type: obs.EventStep, Phase: obs.PhaseStart, Value: 0.5})
		}
	})
}

// BenchmarkEngineRun times one whole run (Deploy plus 60 one-minute
// intervals of a two-PE chain) bare and with each observation hook
// attached: the tracer, the strict invariant checker, and the stage
// profiler. /paired runs a bare, a traced and a profiled run per op, in
// rotating order inside one timed loop, and reports tracer/bare and
// profiler/bare from their summed times, so both sides of each ratio share
// the host's state; ci.sh bounds those ratios, and the tracer's and the
// checker's allocations against bare's. Engines are built in batches with
// the timer stopped once per batch: under -benchmem every
// StopTimer/StartTimer pair reads the heap statistics, which stops the
// world, and one pair per run made the ratios swing by half.
func BenchmarkEngineRun(b *testing.B) {
	const batch = 50
	// A hook is set on the config (the checker) or attached to the built
	// engine (the observers).
	type hook struct {
		name   string
		config func(*Config)
		attach func(*Engine)
	}
	hooks := []hook{
		{name: "bare"},
		{name: "tracer", attach: func(e *Engine) { e.SetTracer(obs.NewTracer(new(bytes.Buffer))) }},
		{name: "checker", config: func(cfg *Config) { cfg.Checker = invariant.NewStrict() }},
		{name: "profiler", attach: func(e *Engine) { e.SetProfiler(obs.NewStageProfiler(nil)) }},
	}
	build := func(b *testing.B, h hook) *Engine {
		cfg := baseConfig(chainGraph(1), 4, 3600)
		if h.config != nil {
			h.config(&cfg)
		}
		e, err := NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if h.attach != nil {
			h.attach(e)
		}
		return e
	}
	run := func(b *testing.B, e *Engine) {
		if _, err := e.Run(&fixed{deploy: deployEven}); err != nil {
			b.Fatal(err)
		}
	}
	for _, hook := range hooks {
		b.Run(hook.name, func(b *testing.B) {
			engines := make([]*Engine, 0, batch)
			for done := 0; done < b.N; done += len(engines) {
				b.StopTimer()
				engines = engines[:0]
				for len(engines) < batch && done+len(engines) < b.N {
					engines = append(engines, build(b, hook))
				}
				runtime.GC()
				b.StartTimer()
				for _, e := range engines {
					run(b, e)
				}
			}
		})
	}
	b.Run("paired", func(b *testing.B) {
		paired := [...]hook{hooks[0], hooks[1], hooks[3]}
		var spent [len(paired)]time.Duration
		trios := make([][len(paired)]*Engine, 0, batch)
		for done := 0; done < b.N; done += len(trios) {
			b.StopTimer()
			trios = trios[:0]
			for len(trios) < batch && done+len(trios) < b.N {
				var trio [len(paired)]*Engine
				for k, h := range paired {
					trio[k] = build(b, h)
				}
				trios = append(trios, trio)
			}
			runtime.GC()
			b.StartTimer()
			for i, trio := range trios {
				for j := range trio {
					k := (done + i + j) % len(trio)
					start := time.Now()
					run(b, trio[k])
					spent[k] += time.Since(start)
				}
			}
		}
		b.ReportMetric(float64(spent[1])/float64(spent[0]), "tracer/bare")
		b.ReportMetric(float64(spent[2])/float64(spent[0]), "profiler/bare")
	})
}
