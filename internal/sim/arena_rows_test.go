package sim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dynamicdf/internal/invariant"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/state"
)

// padRows gives every arena row an empty slot for every VM the fleet ever
// held: the layout of an arena that never forgets a VM.
func padRows(e *Engine) {
	for pe := range e.pes {
		for _, vm := range e.fleet.All() {
			e.pes[pe].ensureSlot(vm.ID)
		}
	}
}

// padded runs its scheduler and pads the rows after Deploy and after every
// Adapt, that is before every interval.
type padded struct{ Scheduler }

func (s padded) Deploy(v *View, act Control) error {
	err := s.Scheduler.Deploy(v, act)
	padRows(v.e)
	return err
}

func (s padded) Adapt(v *View, act Control) error {
	err := s.Scheduler.Adapt(v, act)
	padRows(v.e)
	return err
}

// slotCount is the number of slots in all of the engine's rows.
func slotCount(e *Engine) int {
	n := 0
	for pe := range e.pes {
		n += len(e.pes[pe].vms)
	}
	return n
}

// TestEmptySlotsAddExactZeros: a slot that holds neither cores nor messages
// never hosts, receives nothing and adds exact zeros, so a run whose rows
// are padded before every interval with an empty slot for every VM ever
// acquired writes the same trace, audit log, metric CSV and summary as the
// run that keeps only the slots in use. The runs are
// TestCheckpointRestoreByteIdentical's random faulted scenarios (crashes,
// boot delays, failed acquisitions, releases of VMs with buffered
// messages) and churnConfig runs under indexChurn (spot preemptions and
// random moves and unassignments, which migrate queues), all under the
// strict checker.
func TestEmptySlotsAddExactZeros(t *testing.T) {
	type run struct {
		cfg   Config
		sched func(*Engine) Scheduler
	}
	var runs []run
	for seed := int64(0); seed < 8; seed++ {
		runs = append(runs, run{ckptConfig(t, seed), func(*Engine) Scheduler { return &ckptSched{} }})
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := churnConfig(t, seed)
		cfg.Audit = true
		runs = append(runs, run{cfg, func(e *Engine) Scheduler {
			return &indexChurn{e: e, rng: rand.New(rand.NewSource(seed))}
		}})
	}
	var migrations, preemptions int
	for i, r := range runs {
		var traces, csvs [2]bytes.Buffer
		var sums [2]metrics.Summary
		var engines [2]*Engine
		for k := range engines {
			cfg := r.cfg
			cfg.Checker = invariant.NewStrict()
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.SetTracer(obs.NewTracer(&traces[k]))
			s := r.sched(e)
			if k == 1 {
				s = padded{s}
			}
			if sums[k], err = e.Run(s); err != nil {
				t.Fatalf("run %d, padded %v: %v", i, k == 1, err)
			}
			if err := e.Collector().WriteCSV(&csvs[k]); err != nil {
				t.Fatal(err)
			}
			engines[k] = e
		}
		lean, fat := engines[0], engines[1]
		if slotCount(fat) <= slotCount(lean) {
			t.Fatalf("run %d: the padded run ends with %d slots, the lean one %d", i, slotCount(fat), slotCount(lean))
		}
		if !reflect.DeepEqual(sums[0], sums[1]) {
			t.Errorf("run %d: summaries differ:\nlean %+v\npadded %+v", i, sums[0], sums[1])
		}
		if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
			t.Errorf("run %d: traces differ", i)
		}
		if !bytes.Equal(csvs[0].Bytes(), csvs[1].Bytes()) {
			t.Errorf("run %d: metric CSVs differ", i)
		}
		if !slices.Equal(lean.AuditLog(), fat.AuditLog()) {
			t.Errorf("run %d: audit logs differ", i)
		}
		if lean.MigratedBytes() > 0 {
			migrations++
		}
		preemptions += lean.Preemptions()
	}
	t.Logf("%d runs migrated messages, %d preemptions", migrations, preemptions)
	if migrations < 4 || preemptions < 100 {
		t.Fatalf("too tame: %d runs migrated messages, %d preemptions", migrations, preemptions)
	}
}

// checkRows returns an error unless every arena row is slot 0 (VM -1)
// followed by ascending VM ids, each slot holding cores or messages.
func checkRows(e *Engine) error {
	for pe := range e.pes {
		p := &e.pes[pe]
		if len(p.vms) == 0 || p.vms[0] != -1 {
			return fmt.Errorf("PE %d's row %v does not start with the unassigned slot", pe, p.vms)
		}
		for s := 1; s < len(p.vms); s++ {
			if p.vms[s] <= p.vms[s-1] {
				return fmt.Errorf("PE %d's row %v is not ascending", pe, p.vms)
			}
			if p.cores[s] <= 0 && !(p.queue[s] > 0) {
				return fmt.Errorf("PE %d's slot for VM %d holds %d cores and %g messages", pe, p.vms[s], p.cores[s], p.queue[s])
			}
		}
	}
	return nil
}

// checkBoth checks the fleet index and the rows.
func checkBoth(e *Engine) error {
	if err := checkFleetIndex(e); err != nil {
		return err
	}
	return checkRows(e)
}

// TestRowsHoldOnlySlotsInUse: a row is slot 0 and the VMs the PE holds cores
// or messages on, in ascending order. checkRows holds after every control
// call and every interval of churnConfig runs — placements, unassignments,
// moves, releases, crashes and spot preemptions at random — and after a
// restore mid-run from a snapshot that carries a zero-valued queue cell (as
// older snapshots do) and messages a PE has on an active VM it holds no
// cores on; releasing that VM migrates them and reclaims their slot.
func TestRowsHoldOnlySlotsInUse(t *testing.T) {
	ctx := context.Background()
	var calls, crashed int
	for seed := int64(1); seed <= 8; seed++ {
		cfg := churnConfig(t, seed)
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		s := &indexChurn{e: e, rng: rng, check: checkBoth}
		cut := cfg.HorizonSec / 2
		if err := e.RunUntil(ctx, s, cut); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range snap.Queues {
			if !(c.Queue > 0) {
				t.Fatalf("seed %d: the checkpoint carries an empty queue cell %+v", seed, c)
			}
		}

		// Craft the two cells a cold run's checkpoint never carries: an
		// empty queue on a released VM, and messages of a PE (the stranger)
		// on an active VM it holds no cores on.
		released, idle, stranger := -1, -1, -1
		for _, r := range snap.Fleet {
			if r.StopSec >= 0 {
				released = r.ID
				continue
			}
			for pe := 0; pe < snap.GraphPEs && !r.Pending && stranger < 0; pe++ {
				if !slices.ContainsFunc(snap.Cores, func(c state.CoreCell) bool { return c.PE == pe && c.VM == r.ID }) {
					idle, stranger = r.ID, pe
				}
			}
		}
		if released < 0 || stranger < 0 {
			t.Fatalf("seed %d: no released VM, or no active VM some PE holds no cores on, at %ds", seed, cut)
		}
		crafted := *snap
		crafted.Queues = append(slices.Clone(snap.Queues),
			state.QueueCell{PE: 0, VM: released, Queue: 0},
			state.QueueCell{PE: stranger, VM: idle, Queue: 7.5})
		if e, err = Restore(&crafted, cfg); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if err := checkRows(e); err != nil {
			t.Fatalf("seed %d: restored: %v", seed, err)
		}
		p := &e.pes[stranger]
		if sl := p.slotOf(idle); sl < 0 || p.queue[sl] != 7.5 {
			t.Fatalf("seed %d: the restored messages of PE %d on VM %d are gone", seed, stranger, idle)
		}

		// Empty the VM and release it, checking after every call.
		ctl := &checkedControl{Control: NewActions(e), e: e, check: checkBoth}
		for pe := range e.pes {
			if n := e.pes[pe].coresOf(idle); n > 0 {
				if err := ctl.UnassignCores(pe, idle, n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := ctl.ReleaseVM(idle); err != nil {
			t.Fatal(err)
		}
		if ctl.err != nil {
			t.Fatalf("seed %d: %v", seed, ctl.err)
		}
		if p := &e.pes[stranger]; p.slotOf(idle) >= 0 {
			t.Fatalf("seed %d: PE %d keeps a slot for released VM %d", seed, stranger, idle)
		}

		s.e = e
		if err := e.RunUntil(ctx, s, cfg.HorizonSec); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkRows(e); err != nil {
			t.Fatalf("seed %d: at the horizon: %v", seed, err)
		}
		calls += s.calls + ctl.calls
		crashed += e.Crashes()
	}
	if calls < 1000 || crashed < 20 {
		t.Fatalf("too little churn: %d checked calls, %d crashes", calls, crashed)
	}
	t.Logf("%d checked control calls, %d crashes", calls, crashed)
}
