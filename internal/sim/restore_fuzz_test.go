package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynamicdf/internal/invariant"
	"dynamicdf/internal/monitor"
	"dynamicdf/internal/state"
)

// restoreFuzzBases are checkpoints of churnConfig under churnSched — boot
// delays, crashes, spot preemption and releases — each holding active,
// booting and released VMs, taken a few intervals apart.
func restoreFuzzBases(t testing.TB, cfg Config) []*state.Snapshot {
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bases []*state.Snapshot
	for len(bases) < 3 {
		snap, _, _, _ := churnSnapshot(t, e, cfg)
		bases = append(bases, snap)
		if err := e.RunUntil(context.Background(), &churnSched{}, e.Now()+4*cfg.IntervalSec); err != nil {
			t.Fatal(err)
		}
	}
	return bases
}

// maxRestoreEdits bounds the edits one fuzz input applies.
const maxRestoreEdits = 8

// editSnapshot applies one edit, decoded from four fuzz bytes, to the
// fleet records, core cells, queue cells, monitor entries or legacy network
// lists of s. The edited collections must be s's own copies.
func editSnapshot(s *state.Snapshot, menu []string, op, a, b, c byte) {
	nVM := len(s.Fleet)
	vmID := func(x byte) int { return int(x)%(nVM+2) - 1 } // -1 and one past the fleet included
	switch op % 16 {
	case 0, 1, 2, 3, 4, 5:
		if nVM == 0 {
			return
		}
		r := &s.Fleet[int(a)%nVM]
		switch op % 16 {
		case 0:
			r.UsedCores = int(b) - 1
		case 1:
			r.StopSec = -1
			if b%2 == 1 {
				r.StopSec = s.ClockSec - int64(c)*30
			}
		case 2:
			r.Pending = !r.Pending
		case 3:
			r.ReadySec = r.StartSec + int64(b)*60 - int64(c)
		case 4:
			r.StartSec = s.ClockSec - int64(b)*60 + int64(c)
		case 5:
			r.Class = "no-such-class"
			if int(b) < 4*len(menu) {
				r.Class = menu[int(b)%len(menu)]
			}
		}
	case 6, 7, 8:
		if len(s.Cores) == 0 {
			return
		}
		cell := &s.Cores[int(a)%len(s.Cores)]
		switch op % 16 {
		case 6:
			cell.VM = vmID(b)
		case 7:
			cell.PE = int(b)%(s.GraphPEs+1) - int(c)%2
		case 8:
			cell.Cores = int(b) - 1
		}
	case 9:
		s.Cores = append(s.Cores, state.CoreCell{PE: int(a) % s.GraphPEs, VM: vmID(b), Cores: 1 + int(c)%4})
	case 10:
		if len(s.Cores) > 0 {
			s.Cores = slices.Delete(s.Cores, int(a)%len(s.Cores), int(a)%len(s.Cores)+1)
		}
	case 11:
		if len(s.Queues) > 0 {
			q := &s.Queues[int(a)%len(s.Queues)]
			q.VM = vmID(b)
			q.Queue = float64(c) - 1
		}
	case 12:
		s.Queues = append(s.Queues, state.QueueCell{PE: int(a) % s.GraphPEs, VM: vmID(b), Queue: float64(c)})
	case 13:
		e := monitor.VMCPUEntry{VM: vmID(b), E: monitor.EWMAState{Value: float64(c) / 128, Primed: true}}
		if len(s.VMCPU) > 0 && a%2 == 0 {
			s.VMCPU[int(a)%len(s.VMCPU)] = e
		} else {
			s.VMCPU = append(s.VMCPU, e)
		}
	case 14:
		// The legacy network lists, which Restore ignores.
		e := state.NetEntry{A: vmID(b), B: vmID(c), E: monitor.EWMAState{Value: float64(a) + 1, Primed: true}}
		list := &s.NetLat
		if a%2 == 1 {
			list = &s.NetBW
		}
		if len(*list) > 0 && a%4 < 2 {
			(*list)[int(a)%len(*list)] = e
		} else {
			*list = append(*list, e)
		}
	case 15:
		if nVM > 0 {
			s.Fleet = s.Fleet[:nVM-1]
		}
	}
}

// sameRestore reports whether restoring snap onto cfg gives what Restore
// gave as (e, err): the same error, or an engine whose checkpoint encodes
// to the same bytes.
func sameRestore(e *Engine, err error, snap *state.Snapshot, cfg Config) error {
	other, otherErr := Restore(snap, cfg)
	if err != nil || otherErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(otherErr) {
			return fmt.Errorf("restore error %v, the other %v", err, otherErr)
		}
		return nil
	}
	var blobs [2][]byte
	for i, en := range []*Engine{e, other} {
		s, err := en.Checkpoint()
		if err != nil {
			return err
		}
		if blobs[i], err = state.Encode(s); err != nil {
			return err
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		return errors.New("the restored engines' checkpoints differ")
	}
	return nil
}

// FuzzRestore edits checkpoints of a churning run — fleet records, core
// cells, queue cells, monitor entries, the legacy network lists — and
// restores them. Restore is the state/v1 trust boundary past the digest
// check: a snapshot it accepts must run on. Either Restore errors, or the
// restored engine runs up to three intervals under a scheduler that mutates
// the fleet at random, with a strict invariant checker attached, without a
// panic or a violated law, and its fleet counts and shared VM lists equal
// the history walk after every control call and every interval
// (TestFleetIndexMatchesHistoryWalk's oracle). Other run errors end the
// input. Restore ignores the legacy network lists: with them dropped it
// gives the same error or the same checkpoint. The input's first byte picks
// the checkpoint; each following four bytes are one edit.
func FuzzRestore(f *testing.F) {
	cfg := churnConfig(f, 3)
	bases := restoreFuzzBases(f, cfg)
	var menu []string
	for _, c := range cfg.Menu.Classes() {
		menu = append(menu, c.Name)
	}
	for i := range bases {
		f.Add([]byte{byte(i)})
	}
	f.Add([]byte{0, 0, 0, 1, 0})              // a record's cores, cells unchanged
	f.Add([]byte{1, 1, 2, 1, 0})              // a record released under its cells
	f.Add([]byte{2, 2, 3, 0, 0})              // a pending flag flipped
	f.Add([]byte{0, 9, 0, 2, 0, 15, 0, 0, 0}) // a cell added, the last VM dropped
	f.Add([]byte{1, 11, 0, 3, 9, 13, 1, 2, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		base := bases[int(data[0])%len(bases)]
		snap := *base
		snap.Fleet = slices.Clone(base.Fleet)
		snap.Cores = slices.Clone(base.Cores)
		snap.Queues = slices.Clone(base.Queues)
		snap.VMCPU = slices.Clone(base.VMCPU)
		snap.NetLat = slices.Clone(base.NetLat)
		snap.NetBW = slices.Clone(base.NetBW)
		edits := data[1:]
		for i := 0; i+4 <= len(edits) && i < 4*maxRestoreEdits; i += 4 {
			editSnapshot(&snap, menu, edits[i], edits[i+1], edits[i+2], edits[i+3])
		}
		checked := cfg
		checked.Checker = invariant.NewStrict()
		e, err := Restore(&snap, checked)
		if len(snap.NetLat)+len(snap.NetBW) > 0 {
			bare := snap
			bare.NetLat, bare.NetBW = nil, nil
			if err := sameRestore(e, err, &bare, cfg); err != nil {
				t.Fatalf("legacy network entries: %v", err)
			}
		}
		if err != nil {
			return
		}
		if err := checkFleetIndex(e); err != nil {
			t.Fatalf("restored: %v", err)
		}
		s := &indexChurn{e: e, rng: rand.New(rand.NewSource(int64(len(data))))}
		for k := 0; k < 3 && e.Now() < cfg.HorizonSec; k++ {
			if err := e.RunUntil(context.Background(), s, e.Now()+cfg.IntervalSec); err != nil {
				if _, violated := invariant.As(err); violated || errors.Is(err, errIndexMismatch) {
					t.Fatal(err)
				}
				return
			}
			if err := checkFleetIndex(e); err != nil {
				t.Fatalf("t=%d: %v", e.Now(), err)
			}
		}
	})
}
