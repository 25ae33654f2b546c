package invariant

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// cleanState returns a state that satisfies every default law: one PE in
// flow balance, one fully-accounted VM, consistent counters.
func cleanState() *State {
	return &State{
		Sec:         120,
		IntervalSec: 60,
		In:          []float64{5},
		Processed:   []float64{4},
		QueueBefore: []float64{10},
		QueueAfter:  []float64{70}, // 10 + (5-4)*60
		Backlog:     70,
		Omega:       0.8,
		Gamma:       0.9,
		GammaMin:    0.5,
		GammaMax:    1,
		CostUSD:     0.34,
		PrevCostUSD: 0.34,
		VMs: []VMState{
			{ID: 0, RatedCores: 4, UsedCores: 2, BilledUSD: 0.34},
			{ID: 1, RatedCores: 2, UsedCores: 0, Pending: true},
		},
		Placements: []Placement{{PE: 0, VM: 0, Cores: 2}},
	}
}

func TestCleanStatePassesAllLaws(t *testing.T) {
	c := NewStrict()
	if v := c.Check(cleanState()); v != nil {
		t.Fatalf("clean state violates %q: %s", v.Law, v.Msg)
	}
	if c.Count() != 0 {
		t.Fatalf("clean state recorded %d violations", c.Count())
	}
}

// TestEachLawTrips corrupts the clean state one law at a time and asserts
// the checker names exactly that law, with the sim-second attached.
func TestEachLawTrips(t *testing.T) {
	cases := []struct {
		law     string
		corrupt func(st *State)
	}{
		{LawConservation, func(st *State) { st.Processed[0] = 1 }},
		{LawQueues, func(st *State) { st.MinQueue = -0.5 }},
		{LawQueues, func(st *State) { st.QueueAfter[0] = -3; st.Processed[0] = 4 + 73.0/60 }},
		{LawBilling, func(st *State) { st.PrevCostUSD = 1.0 }},
		{LawBilling, func(st *State) { st.VMs[1].BilledUSD = 0.1 }},
		{LawFleet, func(st *State) { st.VMs[0].UsedCores = 9; st.Placements[0].Cores = 9 }},
		{LawFleet, func(st *State) { st.Placements[0].VM = 7 }},
		{LawFleet, func(st *State) { st.VMs[0].Stopped = true }},
		{LawBounds, func(st *State) { st.Omega = 1.2 }},
		{LawBounds, func(st *State) { st.Gamma = 0.2 }},
		{LawAudit, func(st *State) { st.Crashes = 2 }},
		{LawAudit, func(st *State) { st.Preemptions = 1; st.Crashes = 1; st.PreemptEvents = 0 }},
	}
	for i, tc := range cases {
		t.Run(fmt.Sprintf("%02d-%s", i, tc.law), func(t *testing.T) {
			st := cleanState()
			tc.corrupt(st)
			c := New()
			v := c.Check(st)
			if v == nil {
				t.Fatalf("corrupted state passed all laws")
			}
			if v.Law != tc.law {
				t.Fatalf("violated %q (%s), want %q", v.Law, v.Msg, tc.law)
			}
			if v.Sec != st.Sec {
				t.Fatalf("violation at t=%d, want %d", v.Sec, st.Sec)
			}
			if !strings.Contains(v.Error(), tc.law) || !strings.Contains(v.Error(), "t=120s") {
				t.Fatalf("Error() = %q lacks law name or sim-second", v.Error())
			}
		})
	}
}

func TestViolationAsAndErrorsAs(t *testing.T) {
	st := cleanState()
	st.Omega = -1
	v := NewStrict().Check(st)
	if v == nil {
		t.Fatal("no violation")
	}
	wrapped := fmt.Errorf("run failed: %w", error(v))
	got, ok := As(wrapped)
	if !ok || got.Law != LawBounds {
		t.Fatalf("As(wrapped) = %v, %v", got, ok)
	}
	var target *Violation
	if !errors.As(wrapped, &target) || target.Sec != st.Sec {
		t.Fatalf("errors.As failed: %v", target)
	}
	if _, ok := As(errors.New("plain")); ok {
		t.Fatal("As matched a non-violation error")
	}
}

func TestLenientCheckerAccumulates(t *testing.T) {
	c := New()
	st := cleanState()
	st.Omega = 2     // bounds
	st.MinQueue = -1 // queues
	if v := c.Check(st); v == nil {
		t.Fatal("no violation returned")
	}
	// Both broken laws are recorded for the step, in law-catalog order.
	if c.Count() != 2 {
		t.Fatalf("recorded %d violations, want 2", c.Count())
	}
	vs := c.Violations()
	if vs[0].Law != LawQueues || vs[1].Law != LawBounds {
		t.Fatalf("laws = %q, %q", vs[0].Law, vs[1].Law)
	}
	if snap := vs[1].Snapshot; snap.Omega != 2 || snap.VMs != 2 || snap.UsedCores != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatalf("Reset left %d violations", c.Count())
	}
}

func TestEpsilonTolerance(t *testing.T) {
	st := cleanState()
	st.QueueAfter[0] += 1e-9 // within DefaultEpsilon of balance
	if v := New().Check(st); v != nil {
		t.Fatalf("sub-epsilon residual tripped %q: %s", v.Law, v.Msg)
	}
	tight := &Checker{Epsilon: 1e-12}
	if v := tight.Check(st); v == nil || v.Law != LawConservation {
		t.Fatalf("tight epsilon did not trip conservation: %v", v)
	}
}

func TestCustomLawSet(t *testing.T) {
	called := false
	c := &Checker{Laws: []Law{{Name: "always-fails", Check: func(st *State, eps float64) string {
		called = true
		return "no"
	}}}}
	v := c.Check(cleanState())
	if !called || v == nil || v.Law != "always-fails" {
		t.Fatalf("custom law not used: %v", v)
	}
}

func TestDefaultLawsIsACopy(t *testing.T) {
	laws := DefaultLaws()
	laws[0] = Law{Name: "clobbered", Check: func(*State, float64) string { return "" }}
	if defaultLaws[0].Name != LawConservation {
		t.Fatal("DefaultLaws exposed the shared slice")
	}
}

// referenceCheckFleet is the fleet law as it was before it kept its
// scratch with the State: a fresh id map and core tally on every call.
func referenceCheckFleet(st *State) string {
	byID := make(map[int]int, len(st.VMs))
	for i, vm := range st.VMs {
		byID[vm.ID] = i
		if vm.UsedCores < 0 {
			return fmt.Sprintf("VM %d has negative used cores %d", vm.ID, vm.UsedCores)
		}
		if vm.UsedCores > vm.RatedCores {
			return fmt.Sprintf("VM %d oversubscribed: %d used > %d rated cores", vm.ID, vm.UsedCores, vm.RatedCores)
		}
	}
	assigned := make([]int, len(st.VMs))
	for _, p := range st.Placements {
		if p.Cores <= 0 {
			return fmt.Sprintf("PE %d holds a non-positive placement of %d cores on VM %d", p.PE, p.Cores, p.VM)
		}
		i, ok := byID[p.VM]
		if !ok {
			return fmt.Sprintf("PE %d placed on unknown VM %d", p.PE, p.VM)
		}
		if st.VMs[i].Stopped {
			return fmt.Sprintf("PE %d placed on stopped VM %d", p.PE, p.VM)
		}
		assigned[i] += p.Cores
	}
	for i, vm := range st.VMs {
		if assigned[i] != vm.UsedCores {
			return fmt.Sprintf("VM %d: %d cores placed vs %d used", vm.ID, assigned[i], vm.UsedCores)
		}
	}
	return ""
}

// TestFleetLawMatchesReference drives one reused State through random
// fleets (consecutive ids as the engine numbers them, some out of order or
// repeated, growing and shrinking) and requires the fleet law's verdict to
// match the original, which allocated afresh, on every call.
func TestFleetLawMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st := &State{}
	tripped := 0
	for k := 0; k < 5000; k++ {
		n := rng.Intn(40)
		base := rng.Intn(100)
		st.VMs = st.VMs[:0]
		for i := 0; i < n; i++ {
			vm := VMState{ID: base + i, RatedCores: 1 + rng.Intn(8), Stopped: rng.Intn(8) == 0}
			if rng.Intn(10) == 0 {
				vm.ID = rng.Intn(50) // out of order or repeated
			}
			st.VMs = append(st.VMs, vm)
		}
		st.Placements = st.Placements[:0]
		for p := 0; n > 0 && p < rng.Intn(30); p++ {
			i := rng.Intn(n)
			pl := Placement{PE: p, VM: st.VMs[i].ID, Cores: 1 + rng.Intn(3)}
			switch rng.Intn(30) {
			case 0:
				pl.VM = base + n + rng.Intn(3) // unknown, just past the end
			case 1:
				pl.VM = base - 1 - rng.Intn(3) // unknown, just before the start
			case 2:
				pl.Cores = -rng.Intn(2)
			}
			st.Placements = append(st.Placements, pl)
			if !st.VMs[i].Stopped && rng.Intn(10) != 0 {
				st.VMs[i].UsedCores += pl.Cores
			}
		}
		if want, got := referenceCheckFleet(st), checkFleet(st, 0); got != want {
			t.Fatalf("state %d: fleet law says %q, reference %q\nVMs %+v\nplacements %+v", k, got, want, st.VMs, st.Placements)
		} else if got != "" {
			tripped++
		}
	}
	if tripped < 500 || tripped > 4500 {
		t.Fatalf("%d of 5000 random fleets tripped the law: the generator is lopsided", tripped)
	}
}

// TestFleetLawAllocatesNothing: once its scratch has grown, checking a
// reused State's fleet allocates nothing.
func TestFleetLawAllocatesNothing(t *testing.T) {
	st := cleanState()
	for i := 2; i < 64; i++ {
		st.VMs = append(st.VMs, VMState{ID: i, RatedCores: 2, UsedCores: 1})
		st.Placements = append(st.Placements, Placement{PE: 0, VM: i, Cores: 1})
	}
	if msg := checkFleet(st, 0); msg != "" {
		t.Fatal(msg)
	}
	if a := testing.AllocsPerRun(100, func() { checkFleet(st, 0) }); a != 0 {
		t.Fatalf("fleet law allocates %v objects per check", a)
	}
}
