package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/monitor"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/state"
	"dynamicdf/internal/trace"
)

// eagerNet is the oracle for the on-demand network monitor: the observe
// stage's old pairwise probe loop, kept verbatim, folding every pair of
// active VMs into map-backed estimators at every pass. It also counts the
// stale draws of the rate and CPU probes, so stale is what the engine's
// StaleProbes must read.
type eagerNet struct {
	alpha float64
	perf  trace.Provider
	clock int64 // the latest pass replayed
	pairs map[[2]int]*eagerCell
	stale int
}

type eagerCell struct{ lat, bw *monitor.EWMA }

func newEagerNet(alpha float64, perf trace.Provider) *eagerNet {
	return &eagerNet{alpha: alpha, perf: perf, pairs: map[[2]int]*eagerCell{}}
}

func (o *eagerNet) clone() *eagerNet {
	c := *o
	c.pairs = make(map[[2]int]*eagerCell, len(o.pairs))
	for k, p := range o.pairs {
		lat, bw := *p.lat, *p.bw
		c.pairs[k] = &eagerCell{lat: &lat, bw: &bw}
	}
	return &c
}

// observe is the old push-style NetMonitor.Observe on a map.
func (o *eagerNet) observe(a, b int, latSec, bwMbps float64) {
	if latSec < 0 || bwMbps <= 0 {
		return
	}
	p := o.pairs[[2]int{a, b}]
	if p == nil {
		lat, _ := monitor.NewEWMA(o.alpha)
		bw, _ := monitor.NewEWMA(o.alpha)
		p = &eagerCell{lat: lat, bw: bw}
		o.pairs[[2]int{a, b}] = p
	}
	p.lat.Observe(latSec)
	p.bw.Observe(bwMbps)
}

// sync replays the observe pass the engine just ran, if it has not been
// replayed yet. Between a pass and the next Adapt (or the end of RunUntil)
// the fleet does not change, so the active list is the pass's.
func (o *eagerNet) sync(e *Engine) {
	if e.clock == 0 || e.clock == o.clock {
		return
	}
	o.clock = e.clock
	cf := e.cfg.ControlFaults
	active := e.fleet.ActiveInto(nil)
	for _, pe := range e.inputKeys {
		if cf.probeStale(drawStaleRate, uint64(pe), e.clock) {
			o.stale++
		}
	}
	live := map[int]bool{}
	for _, vm := range active {
		live[vm.ID] = true
		if cf.probeStale(drawStaleCPU, uint64(vm.ID), e.clock) {
			o.stale++
		}
	}
	// A VM leaves the active list only by release or crash, which forget it.
	for k := range o.pairs {
		if !live[k[0]] || !live[k[1]] {
			delete(o.pairs, k)
		}
	}
	sec := e.clock - e.cfg.IntervalSec
	for i := 0; i < len(active); i++ {
		for j := i + 1; j < len(active); j++ {
			a, b := active[i], active[j]
			pair := uint64(a.ID)<<32 | uint64(b.ID)
			if cf.probeStale(drawStaleNet, pair, e.clock) {
				o.stale++
				continue
			}
			lat := o.perf.LatencySec(e.vmTraceID(a.ID), e.vmTraceID(b.ID), sec)
			bw := o.perf.BandwidthMbps(e.vmTraceID(a.ID), e.vmTraceID(b.ID), sec)
			noise := cf.probeNoise(drawNoiseNet, pair, e.clock)
			o.observe(a.ID, b.ID, lat*noise, bw*noise)
		}
	}
}

// export is the oracle's state in Export's form.
func (o *eagerNet) export() (lat, bw []monitor.NetEntry) {
	keys := make([][2]int, 0, len(o.pairs))
	for k := range o.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		p := o.pairs[k]
		lat = append(lat, monitor.NetEntry{A: k[0], B: k[1], E: p.lat.State()})
		bw = append(bw, monitor.NetEntry{A: k[0], B: k[1], E: p.bw.State()})
	}
	return lat, bw
}

// read returns what View.Latency/Bandwidth must report for the pair.
func (o *eagerNet) read(a, b int) (lat, bw float64) {
	p := o.pairs[[2]int{min(a, b), max(a, b)}]
	if p == nil {
		return 0.0005, 100
	}
	return p.lat.ValueOr(0.0005), p.bw.ValueOr(100)
}

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

// oracleSched wraps a scheduler: before each Adapt, which runs right after
// the previous interval's observe pass, it replays that pass on the oracle,
// checks the stale count, and reads pairs through the View.
type oracleSched struct {
	*churnSched
	t     *testing.T
	o     *eagerNet
	reads string // "all" active pairs, "some" random pairs, or "none"
	rng   *rand.Rand
}

func (w *oracleSched) Adapt(v *View, act Control) error {
	w.o.sync(v.e)
	w.check(v.e)
	switch w.reads {
	case "all", "some":
		active := v.ActiveVMs()
		for i := range active {
			for j := i + 1; j < len(active); j++ {
				if w.reads == "some" && w.rng.Intn(40) != 0 {
					continue
				}
				a, b := active[i].ID, active[j].ID
				if w.rng.Intn(2) == 0 {
					a, b = b, a
				}
				wantLat, wantBW := w.o.read(a, b)
				if lat, bw := v.Latency(a, b), v.Bandwidth(a, b); math.Float64bits(lat) != math.Float64bits(wantLat) ||
					math.Float64bits(bw) != math.Float64bits(wantBW) {
					w.t.Fatalf("t=%d: pair (%d,%d) reads %v/%v, eager loop has %v/%v",
						v.Now(), a, b, lat, bw, wantLat, wantBW)
				}
			}
		}
	}
	return w.churnSched.Adapt(v, act)
}

// check compares the engine's stale-probe count with the oracle's.
func (w *oracleSched) check(e *Engine) {
	w.t.Helper()
	if e.StaleProbes() != w.o.stale {
		w.t.Fatalf("t=%d: %d stale probes, eager loop counts %d", e.clock, e.StaleProbes(), w.o.stale)
	}
}

// checkSnapshot replays the engine's latest pass, checkpoints the engine
// and compares its network entries with the oracle's.
func (w *oracleSched) checkSnapshot(e *Engine) *state.Snapshot {
	w.t.Helper()
	w.o.sync(e)
	w.check(e)
	snap, err := e.Checkpoint()
	if err != nil {
		w.t.Fatal(err)
	}
	lat, bw := w.o.export()
	if !reflect.DeepEqual(snap.NetLat, lat) || !reflect.DeepEqual(snap.NetBW, bw) {
		w.t.Fatalf("t=%d: checkpoint holds %d/%d net entries that differ from the eager loop's %d/%d",
			e.clock, len(snap.NetLat), len(snap.NetBW), len(lat), len(bw))
	}
	return snap
}

func eagerConfig(t testing.TB, seed int64) Config {
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

// TestNetMonitorMatchesEagerProbes checks the on-demand network monitor bit
// for bit against the eager pairwise probe loop it replaced: on replayed
// infrastructure under stale and noisy probes, with booting, crashing,
// preempted and released VMs; reading every active pair after every
// interval, a random few, or none; comparing checkpointed state at random
// clocks; and restoring mid-run and continuing.
func TestNetMonitorMatchesEagerProbes(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		for _, reads := range []string{"all", "some", "none"} {
			cfg := eagerConfig(t, seed)
			rng := rand.New(rand.NewSource(seed))
			intervals := cfg.HorizonSec / cfg.IntervalSec
			stops := map[int64]bool{cfg.HorizonSec: true}
			for len(stops) < 5 {
				stops[(1+rng.Int63n(intervals-1))*cfg.IntervalSec] = true
			}
			var clocks []int64
			for c := range stops {
				clocks = append(clocks, c)
			}
			sort.Slice(clocks, func(i, j int) bool { return clocks[i] < clocks[j] })
			restoreAt := clocks[rng.Intn(len(clocks)-1)]

			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := &oracleSched{churnSched: &churnSched{}, t: t, o: newEagerNet(e.cfg.MonitorAlpha, cfg.Perf),
				reads: reads, rng: rand.New(rand.NewSource(seed))}
			// After restoreAt, a restored engine runs beside the cold one,
			// against its own copy of the oracle, and every later
			// checkpoint of the two must match byte for byte.
			var restored *Engine
			var rw *oracleSched
			for _, c := range clocks {
				if err := e.RunUntil(ctx, w, c); err != nil {
					t.Fatal(err)
				}
				cold := w.checkSnapshot(e)
				coldBlob, err := state.Encode(cold)
				if err != nil {
					t.Fatal(err)
				}
				if restored != nil {
					if err := restored.RunUntil(ctx, rw, c); err != nil {
						t.Fatal(err)
					}
					warmBlob, err := state.Encode(rw.checkSnapshot(restored))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(coldBlob, warmBlob) {
						t.Fatalf("seed %d, reads %s: restored at t=%d, the snapshot at t=%d differs from the cold run's",
							seed, reads, restoreAt, c)
					}
				}
				if c == restoreAt {
					dec, err := state.Decode(coldBlob)
					if err != nil {
						t.Fatal(err)
					}
					if restored, err = Restore(dec, cfg); err != nil {
						t.Fatalf("seed %d: restore at t=%d: %v", seed, c, err)
					}
					rw = &oracleSched{churnSched: &churnSched{}, t: t, o: w.o.clone(),
						reads: reads, rng: rand.New(rand.NewSource(-seed))}
				}
				if seed == 1 && reads == "none" && c == cfg.HorizonSec &&
					(len(cold.NetLat) == 0 || e.Crashes() == 0 || e.StaleProbes() == 0) {
					t.Fatalf("scenario too tame: %d net entries, %d crashes, %d stale probes",
						len(cold.NetLat), e.Crashes(), e.StaleProbes())
				}
			}
		}
	}
}

// countingPerf counts the trace provider's latency reads.
type countingPerf struct {
	trace.Provider
	lat int
}

func (p *countingPerf) LatencySec(a, b, sec int64) float64 {
	p.lat++
	return p.Provider.LatencySec(a, b, sec)
}

// TestObserveMakesNoPairProbes: a run that neither reads the network
// monitor nor checkpoints never reads a pairwise latency (the eager loop
// read one per active pair per interval), and under stale faults the
// engine still counts every dropped pair probe.
func TestObserveMakesNoPairProbes(t *testing.T) {
	for _, stale := range []float64{0, 0.3} {
		cfg := eagerConfig(t, 7)
		cfg.ControlFaults.Monitoring.StaleProb = stale
		base := cfg.Perf
		perf := &countingPerf{Provider: base}
		cfg.Perf = perf
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle replays the passes on the uncounted provider.
		w := &oracleSched{churnSched: &churnSched{}, t: t, o: newEagerNet(e.cfg.MonitorAlpha, base), reads: "none"}
		if _, err := e.Run(w); err != nil {
			t.Fatal(err)
		}
		w.o.sync(e)
		w.check(e)
		// Only the network probes read latencies; the flow stage reads
		// bandwidths for its link caps.
		if perf.lat != 0 {
			t.Fatalf("stale %v: the run read %d pairwise latencies", stale, perf.lat)
		}
		if stale > 0 && e.StaleProbes() == 0 {
			t.Fatalf("stale %v: no stale probes counted", stale)
		}
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if perf.lat == 0 {
			t.Fatalf("stale %v: the checkpoint folded no probes", stale)
		}
	}
}
