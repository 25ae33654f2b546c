package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/monitor"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/state"
)

// ckptSched is a deterministic, stateful test policy: its decisions depend
// on an internal tick counter, so a restore that forgot scheduler state
// would visibly diverge from the uninterrupted run.
type ckptSched struct {
	ticks int
	vms   []int
}

func (s *ckptSched) Name() string { return "ckpt-test" }

func (s *ckptSched) Deploy(v *View, act Control) error {
	for pe := 0; pe < v.Graph().N(); pe++ {
		// Bounded retry over injected transient acquisition failures.
		var id int
		var err error
		for try := 0; try < 10; try++ {
			if id, err = act.AcquireVM("m1.large"); err == nil {
				break
			}
			if !IsCapacityError(err) {
				return err
			}
		}
		if err != nil {
			return err
		}
		s.vms = append(s.vms, id)
		if err := act.AssignCores(pe, id, 2); err != nil {
			return err
		}
	}
	return nil
}

func (s *ckptSched) Adapt(v *View, act Control) error {
	s.ticks++
	pe := s.ticks % v.Graph().N()
	switch {
	case s.ticks%3 == 1:
		// Grow: transient acquisition failures are tolerated, like a real
		// policy under control-plane faults.
		if id, err := act.AcquireVM("m1.medium"); err == nil {
			s.vms = append(s.vms, id)
			if err := act.AssignCores(pe, id, 1); err != nil && !IsCapacityError(err) {
				return err
			}
		} else if !IsCapacityError(err) {
			return err
		}
	case s.ticks%7 == 2 && len(s.vms) > v.Graph().N():
		// Shrink from the tail; a VM that already crashed is fine to skip.
		id := s.vms[len(s.vms)-1]
		s.vms = s.vms[:len(s.vms)-1]
		_ = act.ReleaseVM(id)
	}
	return nil
}

type ckptSchedState struct {
	Ticks int   `json:"ticks"`
	VMs   []int `json:"vms"`
}

func (s *ckptSched) CheckpointState() ([]byte, error) {
	return json.Marshal(ckptSchedState{Ticks: s.ticks, VMs: s.vms})
}

func (s *ckptSched) RestoreState(blob []byte) error {
	var st ckptSchedState
	if err := json.Unmarshal(blob, &st); err != nil {
		return err
	}
	s.ticks, s.vms = st.Ticks, st.VMs
	return nil
}

var _ StatefulScheduler = (*ckptSched)(nil)

func ckptConfig(t *testing.T, seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	g := randomPipelineDAG(rng)
	profiles := map[int]rates.Profile{}
	for _, pe := range g.Inputs() {
		w, err := rates.NewWave(4+rng.Float64()*6, 3, 600)
		if err != nil {
			t.Fatal(err)
		}
		profiles[pe] = w
	}
	return Config{
		Graph:       g,
		Menu:        cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:      profiles,
		IntervalSec: 60,
		HorizonSec:  1800,
		Seed:        seed,
		MaxVMs:      256,
		Failures:    ExponentialFailures{MTBFSec: 3 * 3600, Seed: seed},
		ControlFaults: &ControlFaults{
			Provisioning: &ProvisioningFaults{MeanBootSec: 90},
			Acquisition:  &AcquisitionFaults{FailProb: 0.1},
			Monitoring:   &MonitoringFaults{StaleProb: 0.1, NoiseFrac: 0.05},
			Seed:         seed,
		},
		Audit:   true,
		Checker: invariant.New(),
	}
}

// TestCheckpointRestoreByteIdentical is the round-trip property: for random
// scenarios (random DAGs, wave inputs, crashes, control-plane faults), a run
// interrupted at a random interval — checkpoint, Encode, Decode, Restore
// onto a fresh engine and a fresh scheduler — produces byte-identical trace
// and audit streams, the same metric points, and the same summary as the
// uninterrupted run.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		var coldTrace bytes.Buffer
		coldEng, err := NewEngine(ckptConfig(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		coldEng.SetTracer(obs.NewTracer(&coldTrace))
		coldSum, err := coldEng.Run(&ckptSched{})
		if err != nil {
			t.Fatalf("seed %d: cold run: %v", seed, err)
		}

		// Warm: same scenario, paused at a seed-dependent boundary. The
		// prefix and the resumed run share one trace buffer, so the
		// concatenated stream must equal the cold one byte for byte.
		var warmTrace bytes.Buffer
		warmTracer := obs.NewTracer(&warmTrace)
		warmCfg := ckptConfig(t, seed)
		prefixEng, err := NewEngine(warmCfg)
		if err != nil {
			t.Fatal(err)
		}
		prefixEng.SetTracer(warmTracer)
		intervals := warmCfg.HorizonSec / warmCfg.IntervalSec
		k := 1 + seed%(intervals-1)
		if err := prefixEng.RunUntil(context.Background(), &ckptSched{}, k*warmCfg.IntervalSec); err != nil {
			t.Fatalf("seed %d: prefix: %v", seed, err)
		}
		snap, err := prefixEng.Checkpoint()
		if err != nil {
			t.Fatalf("seed %d: checkpoint: %v", seed, err)
		}
		blob, err := state.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := state.Decode(blob)
		if err != nil {
			t.Fatalf("seed %d: decode own snapshot: %v", seed, err)
		}
		warmEng, err := Restore(decoded, warmCfg)
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		warmEng.SetTracer(warmTracer)
		warmSum, err := warmEng.Run(&ckptSched{})
		if err != nil {
			t.Fatalf("seed %d: resumed run: %v", seed, err)
		}

		if !reflect.DeepEqual(warmSum, coldSum) {
			t.Errorf("seed %d: summary diverged after restore at t=%ds:\ncold %+v\nwarm %+v",
				seed, k*60, coldSum, warmSum)
		}
		if !bytes.Equal(coldTrace.Bytes(), warmTrace.Bytes()) {
			t.Errorf("seed %d: trace streams diverged after restore at t=%ds", seed, k*60)
		}
		coldAudit, warmAudit := coldEng.AuditLog(), warmEng.AuditLog()
		if len(coldAudit) != len(warmAudit) {
			t.Fatalf("seed %d: audit lengths %d vs %d", seed, len(coldAudit), len(warmAudit))
		}
		for i := range coldAudit {
			if coldAudit[i] != warmAudit[i] {
				t.Fatalf("seed %d: audit entry %d: %v vs %v", seed, i, coldAudit[i], warmAudit[i])
			}
		}
		var coldCSV, warmCSV bytes.Buffer
		if err := coldEng.Collector().WriteCSV(&coldCSV); err != nil {
			t.Fatal(err)
		}
		if err := warmEng.Collector().WriteCSV(&warmCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(coldCSV.Bytes(), warmCSV.Bytes()) {
			t.Errorf("seed %d: metric CSVs diverged", seed)
		}
		if coldEng.InvariantViolations() != warmEng.InvariantViolations() {
			t.Errorf("seed %d: violations %d vs %d", seed,
				coldEng.InvariantViolations(), warmEng.InvariantViolations())
		}
	}
}

// TestCheckpointDoesNotPerturbRun: taking a checkpoint mid-run must not
// change the continuing run's behaviour — the engine is observed, not
// consumed.
func TestCheckpointDoesNotPerturbRun(t *testing.T) {
	var plain, observed bytes.Buffer
	a, err := NewEngine(ckptConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	a.SetTracer(obs.NewTracer(&plain))
	sumA, err := a.Run(&ckptSched{})
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewEngine(ckptConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	b.SetTracer(obs.NewTracer(&observed))
	sched := &ckptSched{}
	for _, at := range []int64{300, 600, 1200} {
		if err := b.RunUntil(context.Background(), sched, at); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	sumB, err := b.RunContext(context.Background(), sched)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sumA, sumB) || !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Fatal("mid-run checkpoints perturbed the run")
	}
}

// TestRestoreRejectsMismatchedConfig: a snapshot only restores onto a config
// that agrees on the deterministic world.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := ckptConfig(t, 1)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(context.Background(), &ckptSched{}, 300); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	badSeed := cfg
	badSeed.Seed = cfg.Seed + 1
	if _, err := Restore(snap, badSeed); err == nil {
		t.Error("restore accepted a different seed")
	}
	badInterval := cfg
	badInterval.IntervalSec = 30
	if _, err := Restore(snap, badInterval); err == nil {
		t.Error("restore accepted a different interval")
	}
	badGraph := ckptConfig(t, 6) // different random DAG size with high probability
	if badGraph.Graph.N() != cfg.Graph.N() {
		if _, err := Restore(snap, badGraph); err == nil {
			t.Error("restore accepted a different graph")
		}
	}
	if _, err := Restore(nil, cfg); err == nil {
		t.Error("restore accepted a nil snapshot")
	}
	// The original config still works.
	if _, err := Restore(snap, cfg); err != nil {
		t.Errorf("restore onto the original config failed: %v", err)
	}
}

// TestRestoreSharedSnapshotIsolated: two engines restored from one snapshot
// do not share mutable state.
func TestRestoreSharedSnapshotIsolated(t *testing.T) {
	cfg := ckptConfig(t, 2)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(context.Background(), &ckptSched{}, 600); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Restore(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum1, err := r1.Run(&ckptSched{})
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := r2.Run(&ckptSched{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum1, sum2) {
		t.Fatalf("forked runs diverged: %+v vs %+v", sum1, sum2)
	}
}

// churnSnapshot steps churnConfig under churnSched, one interval at a time
// from the clock the engine is at, until a checkpoint holds an active, a
// released and a pending VM, and returns that checkpoint with one VM id of
// each kind.
func churnSnapshot(t testing.TB, e *Engine, cfg Config) (snap *state.Snapshot, active, released, pending int) {
	t.Helper()
	active, released, pending = -1, -1, -1
	for c := e.Now() + cfg.IntervalSec; pending < 0 || released < 0 || active < 0; c += cfg.IntervalSec {
		if c > cfg.HorizonSec {
			t.Fatal("no checkpoint with an active, a released and a pending VM")
		}
		if err := e.RunUntil(context.Background(), &churnSched{}, c); err != nil {
			t.Fatal(err)
		}
		var err error
		if snap, err = e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		active, released, pending = -1, -1, -1
		for _, r := range snap.Fleet {
			switch {
			case r.StopSec >= 0:
				released = r.ID
			case r.Pending:
				pending = r.ID
			default:
				active = r.ID
			}
		}
	}
	return snap, active, released, pending
}

// TestRestoreRejectsMonitorEntriesForUnprobedVMs: the CPU monitor only
// ever holds active VMs, so a snapshot whose CPU entries name a released or
// still-booting VM is crafted, and restoring it fails with an error that
// names the VM.
func TestRestoreRejectsMonitorEntriesForUnprobedVMs(t *testing.T) {
	cfg := churnConfig(t, 3)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Step until the fleet holds an active, a released and a pending VM.
	snap, _, released, pending := churnSnapshot(t, e, cfg)
	if _, err := Restore(snap, cfg); err != nil {
		t.Fatalf("the untouched snapshot does not restore: %v", err)
	}
	for _, tc := range []struct {
		name string
		vm   int
	}{
		{"cpu entry for a released VM", released},
		{"cpu entry for a pending VM", pending},
	} {
		bad := *snap
		bad.VMCPU = append(slices.Clone(snap.VMCPU), monitor.VMCPUEntry{VM: tc.vm, E: monitor.EWMAState{Value: 1, Primed: true}})
		_, err := Restore(&bad, cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("VM %d", tc.vm)) {
			t.Errorf("%s: restore error %v, want one naming VM %d", tc.name, err, tc.vm)
		}
	}
}

// TestRestoreRejectsCoreCellsContradictingTheFleet: a core cell is one PE's
// cores on one VM, and the VM's fleet record counts the cores its cells
// hold. A snapshot whose cells name a released VM, repeat a (PE, VM) pair,
// do not sum to a VM's recorded cores, or hold more cores than the VM has
// is crafted, and restoring it fails with an error that names the VM.
func TestRestoreRejectsCoreCellsContradictingTheFleet(t *testing.T) {
	cfg := churnConfig(t, 3)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, released, _ := churnSnapshot(t, e, cfg)
	if _, err := Restore(snap, cfg); err != nil {
		t.Fatalf("the untouched snapshot does not restore: %v", err)
	}
	busy, cell := -1, -1 // an active VM holding cores, and one of its cells
	for i, c := range snap.Cores {
		if r := snap.Fleet[c.VM]; r.StopSec < 0 && !r.Pending {
			busy, cell = c.VM, i
			break
		}
	}
	if busy < 0 {
		t.Fatal("no active VM holds cores")
	}
	for _, tc := range []struct {
		name string
		vm   int
		edit func(s *state.Snapshot)
	}{
		{"a cell on a released VM", released, func(s *state.Snapshot) {
			s.Cores = append(slices.Clone(s.Cores), state.CoreCell{PE: 0, VM: released, Cores: 1})
		}},
		{"a repeated (PE, VM) cell", busy, func(s *state.Snapshot) {
			s.Cores = append(slices.Clone(s.Cores), s.Cores[cell])
		}},
		{"cells an active VM's record does not count", busy, func(s *state.Snapshot) {
			s.Fleet = slices.Clone(s.Fleet)
			s.Fleet[busy].UsedCores = 0
		}},
		{"a cell holding more cores than its VM has", busy, func(s *state.Snapshot) {
			s.Cores = slices.Clone(s.Cores)
			s.Cores[cell].Cores = 1 << 40
		}},
	} {
		bad := *snap
		tc.edit(&bad)
		_, err := Restore(&bad, cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("VM %d", tc.vm)) {
			t.Errorf("%s: restore error %v, want one naming VM %d", tc.name, err, tc.vm)
		}
	}
}

// TestRestoreRejectsQueueCellsContradictingTheFleet: a queue cell is one
// PE's messages at the unassigned queue (VM -1) or on a VM of the fleet.
// A snapshot whose cells name a VM the fleet never had, hold messages on a
// released VM, where they would wait forever at zero capacity, or repeat a
// (PE, VM) pair is crafted, and restoring it fails with an error that names
// the VM. Empty cells, which older snapshots carry, restore and are
// dropped: the engine checkpoints as if they were never there.
func TestRestoreRejectsQueueCellsContradictingTheFleet(t *testing.T) {
	cfg := churnConfig(t, 3)
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, active, released, _ := churnSnapshot(t, e, cfg)
	clean, err := Restore(snap, cfg)
	if err != nil {
		t.Fatalf("the untouched snapshot does not restore: %v", err)
	}
	for _, tc := range []struct {
		name  string
		vm    int
		cells []state.QueueCell
	}{
		{"a cell on a VM the fleet never had", 999999, []state.QueueCell{{PE: 0, VM: 999999, Queue: 1}}},
		{"messages on a released VM", released, []state.QueueCell{{PE: 0, VM: released, Queue: 5}}},
		{"a repeated (PE, VM) cell", active, []state.QueueCell{{PE: 1, VM: active, Queue: 2}, {PE: 1, VM: active, Queue: 3}}},
	} {
		bad := *snap
		bad.Queues = append(slices.Clone(snap.Queues), tc.cells...)
		_, err := Restore(&bad, cfg)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("VM %d", tc.vm)) {
			t.Errorf("%s: restore error %v, want one naming VM %d", tc.name, err, tc.vm)
		}
	}

	old := *snap
	old.Queues = append(slices.Clone(snap.Queues),
		state.QueueCell{PE: 0, VM: -1, Queue: 0},
		state.QueueCell{PE: 1, VM: active, Queue: 0},
		state.QueueCell{PE: 0, VM: released, Queue: 0},
		state.QueueCell{PE: 0, VM: released, Queue: 0})
	r, err := Restore(&old, cfg)
	if err != nil {
		t.Fatalf("empty queue cells: %v", err)
	}
	var blobs [2][]byte
	for i, en := range []*Engine{clean, r} {
		s, err := en.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = state.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("empty queue cells survived the restore")
	}
}
