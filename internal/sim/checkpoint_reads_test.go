package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/state"
	"dynamicdf/internal/trace"
)

// churnSched acquires a small VM every interval (alternating on-demand and
// spot classes), releases the oldest extra VM every fifth interval and the
// newest — often still booting — every seventh. Its decisions depend on
// its tick counter and VM list, which it checkpoints.
type churnSched struct {
	ticks int
	extra []int
}

func (s *churnSched) Name() string { return "churn-test" }

func (s *churnSched) Deploy(v *View, act Control) error {
	for pe := 0; pe < v.Graph().N(); pe++ {
		var id int
		var err error
		for try := 0; try < 10; try++ {
			if id, err = act.AcquireVM("m1.large"); err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
		if err := act.AssignCores(pe, id, 2); err != nil {
			return err
		}
	}
	return nil
}

func (s *churnSched) Adapt(v *View, act Control) error {
	s.ticks++
	class := "m1.small"
	if s.ticks%2 == 0 {
		class = "m1.small-spot"
	}
	if id, err := act.AcquireVM(class); err == nil {
		s.extra = append(s.extra, id)
	} else if !IsCapacityError(err) {
		return err
	}
	// A VM that already crashed fails to release; that is fine.
	if s.ticks%5 == 0 && len(s.extra) > 0 {
		_ = act.ReleaseVM(s.extra[0])
		s.extra = s.extra[1:]
	}
	if s.ticks%7 == 3 && len(s.extra) > 0 {
		_ = act.ReleaseVM(s.extra[len(s.extra)-1])
		s.extra = s.extra[:len(s.extra)-1]
	}
	return nil
}

func (s *churnSched) CheckpointState() ([]byte, error) {
	return json.Marshal([]any{s.ticks, s.extra})
}

func (s *churnSched) RestoreState(blob []byte) error {
	var st []json.RawMessage
	if err := json.Unmarshal(blob, &st); err != nil || len(st) != 2 {
		return fmt.Errorf("churn state %s: %v", blob, err)
	}
	s.extra = nil
	if err := json.Unmarshal(st[0], &s.ticks); err != nil {
		return err
	}
	return json.Unmarshal(st[1], &s.extra)
}

// churnConfig is a one-hour chain run for churnSched on replayed
// infrastructure, with boot delays, crashes, spot preemption and stale,
// noisy monitor probes.
func churnConfig(t testing.TB, seed int64) Config {
	w, err := rates.NewWave(6, 3, 900)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:       chainGraph(0.2),
		Menu:        cloud.MustMenu(cloud.WithSpotMarket(cloud.AWS2013Classes(), 0.3)),
		Inputs:      map[int]rates.Profile{0: w},
		Perf:        trace.MustReplayed(trace.ReplayedConfig{Seed: 100 + seed}),
		IntervalSec: 60,
		HorizonSec:  3600,
		Seed:        seed,
		MaxVMs:      256,
		Failures:    ExponentialFailures{MTBFSec: 3600, Seed: seed},
		Preemption:  ExponentialFailures{MTBFSec: 1800, Seed: seed + 1},
		ControlFaults: &ControlFaults{
			Provisioning: &ProvisioningFaults{MeanBootSec: 90},
			Monitoring:   &MonitoringFaults{StaleProb: 0.3, NoiseFrac: 0.2},
			Seed:         seed,
		},
	}
}

// countingPerf counts the trace provider's pairwise network reads.
type countingPerf struct {
	trace.Provider
	lat, bw int
}

func (p *countingPerf) LatencySec(a, b, sec int64) float64 {
	p.lat++
	return p.Provider.LatencySec(a, b, sec)
}

func (p *countingPerf) BandwidthMbps(a, b, sec int64) float64 {
	p.bw++
	return p.Provider.BandwidthMbps(a, b, sec)
}

// staleCount drives churnSched and, before each Adapt, which runs right
// after the previous interval's observe pass, recounts that pass's dropped
// probes: one draw per input PE's rate and one per active VM's CPU. Between
// a pass and the next Adapt the fleet does not change, so the active list
// is the pass's.
type staleCount struct {
	*churnSched
	t     *testing.T
	clock int64 // the latest pass recounted
	n     int
}

func (w *staleCount) Adapt(v *View, act Control) error {
	w.sync(v.e)
	return w.churnSched.Adapt(v, act)
}

// sync recounts the engine's latest pass, once, and checks its stale count.
func (w *staleCount) sync(e *Engine) {
	w.t.Helper()
	if e.clock == 0 || e.clock == w.clock {
		return
	}
	w.clock = e.clock
	cf := e.cfg.ControlFaults
	for _, pe := range e.inputKeys {
		if cf.probeStale(drawStaleRate, uint64(pe), e.clock) {
			w.n++
		}
	}
	for _, vm := range e.fleet.ActiveInto(nil) {
		if cf.probeStale(drawStaleCPU, uint64(vm.ID), e.clock) {
			w.n++
		}
	}
	if e.StaleProbes() != w.n {
		w.t.Fatalf("t=%d: %d stale probes, the rate and CPU draws drop %d", e.clock, e.StaleProbes(), w.n)
	}
}

// TestCheckpointReadsNoNetworkTrace: capturing and resuming a run reads no
// network trace. On replayed infrastructure, with boot delays, crashes,
// preemptions, releases and stale, noisy probes, Checkpoint, state.Encode,
// state.Decode and Restore together make no LatencySec or BandwidthMbps
// call; a checkpoint used to fold every live VM pair's probe history
// through both. The stale count holds the rate and CPU probes only, and the
// restored run ends in the uninterrupted run's state.
func TestCheckpointReadsNoNetworkTrace(t *testing.T) {
	ctx := context.Background()
	cfg := churnConfig(t, 7)
	perf := &countingPerf{Provider: cfg.Perf}
	cfg.Perf = perf
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &staleCount{churnSched: &churnSched{}, t: t}
	if err := e.RunUntil(ctx, w, cfg.HorizonSec/2); err != nil {
		t.Fatal(err)
	}
	w.sync(e)
	if e.Crashes() == 0 || e.StaleProbes() == 0 || e.fleet.ActiveCount() < 3 {
		t.Fatalf("scenario too tame: %d crashes, %d stale probes, %d active VMs",
			e.Crashes(), e.StaleProbes(), e.fleet.ActiveCount())
	}
	perf.lat, perf.bw = 0, 0
	snap, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := state.Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(dec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if perf.lat != 0 || perf.bw != 0 {
		t.Fatalf("checkpoint and restore read %d latencies and %d bandwidths", perf.lat, perf.bw)
	}

	rw := &staleCount{churnSched: &churnSched{}, t: t, clock: w.clock, n: w.n}
	var ends [2][]byte
	for i, run := range []struct {
		e *Engine
		s *staleCount
	}{{e, w}, {r, rw}} {
		if err := run.e.RunUntil(ctx, run.s, cfg.HorizonSec); err != nil {
			t.Fatal(err)
		}
		run.s.sync(run.e)
		end, err := run.e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if ends[i], err = state.Encode(end); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(ends[0], ends[1]) {
		t.Fatal("the restored run ends in a state other than the uninterrupted run's")
	}
}
