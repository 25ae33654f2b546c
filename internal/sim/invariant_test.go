package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dynamicdf/internal/invariant"
	"dynamicdf/internal/obs"
)

// strictConfig is baseConfig plus a strict checker.
func strictConfig(workCost, rate float64, horizon int64) Config {
	cfg := baseConfig(chainGraph(workCost), rate, horizon)
	cfg.Checker = invariant.NewStrict()
	return cfg
}

func TestCheckerCleanRunRecordsNothing(t *testing.T) {
	e, err := NewEngine(strictConfig(1, 4, 3600))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&fixed{deploy: deployEven}); err != nil {
		t.Fatalf("strict-checked run failed: %v", err)
	}
	if n := e.InvariantViolations(); n != 0 {
		t.Fatalf("clean run recorded %d violations: %v", n, e.Checker().Violations())
	}
}

// TestCorruptedStateTripsChecker deliberately corrupts engine state from an
// Adapt callback and asserts the run aborts with a typed
// *invariant.Violation naming the broken law and the sim-second of the
// interval that observed it.
func TestCorruptedStateTripsChecker(t *testing.T) {
	const interval = int64(60)
	cases := []struct {
		name    string
		law     string
		corrupt func(e *Engine)
	}{
		{"oversubscribed-cores", invariant.LawFleet, func(e *Engine) {
			// Reserve a core on the fleet without a matching placement.
			vm, err := e.fleet.Get(0)
			if err != nil {
				panic(err)
			}
			vm.UsedCores++
		}},
		{"phantom-crashes", invariant.LawAudit, func(e *Engine) {
			e.crashCount = 3
		}},
		{"negative-lost-tally", invariant.LawQueues, func(e *Engine) {
			e.lostMessages = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(strictConfig(1, 4, 3600))
			if err != nil {
				t.Fatal(err)
			}
			corrupted := int64(-1)
			sched := &fixed{deploy: deployEven, adapt: func(v *View, act Control) error {
				if corrupted < 0 && e.Now() >= 5*interval {
					tc.corrupt(e)
					corrupted = e.Now()
				}
				return nil
			}}
			_, err = e.Run(sched)
			if err == nil {
				t.Fatal("corrupted run completed without a violation")
			}
			v, ok := invariant.As(err)
			if !ok {
				t.Fatalf("error %v is not an invariant.Violation", err)
			}
			if v.Law != tc.law {
				t.Fatalf("violated %q (%s), want %q", v.Law, v.Msg, tc.law)
			}
			// The corruption lands before interval [corrupted, corrupted+dt)
			// executes; the checker sees it at that interval's end.
			if want := corrupted + interval; v.Sec != want {
				t.Fatalf("violation at t=%ds, want %ds", v.Sec, want)
			}
			if !strings.Contains(err.Error(), v.Law) {
				t.Fatalf("error %q does not name the law", err)
			}
		})
	}
}

// TestLenientCheckerRecordsAndContinues: the same corruption under a lenient
// checker finishes the run, counts a violation per interval, streams an
// invariant-violation trace event, and mirrors the count into the gauges.
func TestLenientCheckerRecordsAndContinues(t *testing.T) {
	cfg := baseConfig(chainGraph(1), 4, 10*60)
	cfg.Checker = invariant.New()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	gauges := obs.NewRunGauges(reg)
	e.SetGauges(gauges)
	var sink bytes.Buffer
	tracer := obs.NewTracer(&sink)
	e.SetTracer(tracer)
	corrupted := false
	_, err = e.Run(&fixed{deploy: deployEven, adapt: func(v *View, act Control) error {
		if !corrupted {
			e.lostMessages = -1
			corrupted = true
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("lenient run aborted: %v", err)
	}
	// Corrupted before the 2nd of 10 intervals: every remaining interval
	// re-observes the broken tally.
	if n := e.InvariantViolations(); n != 9 {
		t.Fatalf("recorded %d violations, want 9", n)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sink.String(), obs.EventInvariantViolation) {
		t.Fatal("no invariant-violation event in the trace stream")
	}
	if got := gauges.Violations.Value(); got != 9 {
		t.Fatalf("violations gauge = %v, want 9", got)
	}
	var expo bytes.Buffer
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), "sim_invariant_violations 9") {
		t.Fatalf("exposition lacks the violation count:\n%s", expo.String())
	}
}

// TestCheckerRunsUnderFaults: chaos (crashes, preemptions, control-plane
// faults) must not trip any law — lost messages, released VMs and audit
// tallies are all part of the conservation bookkeeping.
func TestCheckerRunsUnderFaults(t *testing.T) {
	cfg := chaosConfig(t)
	cfg.Checker = invariant.NewStrict()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&fixed{deploy: chaosRepair, adapt: chaosRepair}); err != nil {
		t.Fatalf("strict-checked chaos run failed: %v", err)
	}
	if e.Crashes() == 0 {
		t.Fatal("chaos config produced no crashes; test exercises nothing")
	}
	if n := e.InvariantViolations(); n != 0 {
		t.Fatalf("chaos run recorded %d violations", n)
	}
}

// TestDisabledCheckerZeroAlloc guards the hot path: with no checker
// attached, the per-step hook must not allocate (mirroring the disabled
// tracer guarantee).
func TestDisabledCheckerZeroAlloc(t *testing.T) {
	e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.checkStep(0.5, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled checker hook allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkEngineStepChecker measures the per-step invariant hook with no
// checker attached. It must report 0 allocs/op — enforced by ci.sh
// alongside the disabled-tracer guarantee.
func BenchmarkEngineStepChecker(b *testing.B) {
	b.Run("hook/disabled", func(b *testing.B) {
		e, err := NewEngine(baseConfig(chainGraph(1), 4, 3600))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.checkStep(0.5, 1, 0, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestViolationSurvivesErrorsIs ensures a strict abort is distinguishable
// from cancellation.
func TestViolationSurvivesErrorsIs(t *testing.T) {
	e, err := NewEngine(strictConfig(1, 4, 600))
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run(&fixed{deploy: func(v *View, act Control) error {
		if err := deployEven(v, act); err != nil {
			return err
		}
		e.migratedBytes = -4
		return nil
	}})
	if err == nil {
		t.Fatal("no violation")
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("violation mistaken for cancellation")
	}
	if v, ok := invariant.As(err); !ok || v.Law != invariant.LawQueues {
		t.Fatalf("err = %v", err)
	}
}
