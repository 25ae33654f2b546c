package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
)

func TestTargetOmegaBoostsWhenSlipping(t *testing.T) {
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	// Comfortable: target is the constraint plus margin.
	if got := h.targetOmega(0.9); got != 0.75 {
		t.Fatalf("comfortable target = %v", got)
	}
	// Slipping: boost proportional to the deficit, capped at 1.
	if got := h.targetOmega(0.6); got != 0.95 {
		t.Fatalf("slipping target = %v", got)
	}
	if got := h.targetOmega(0.2); got != 1.0 {
		t.Fatalf("deep-slip target = %v", got)
	}
}

// alternateBandGraph has a single interior PE whose value/cost ratios rank
// lean > mid > rich, so Alg. 1 deploys lean and upgrades are available.
func alternateBandGraph() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("work",
			dataflow.Alt("rich", 1.0, 1.0, 1),
			dataflow.Alt("mid", 0.9, 0.6, 1),
			dataflow.Alt("lean", 0.7, 0.3, 1)).
		AddPE("sink", dataflow.Alt("e", 1, 0.1, 1)).
		Chain("src", "work", "sink").
		MustBuild()
}

// richFirstGraph ranks rich > mid > lean by value/cost, so Alg. 1 deploys
// rich and downgrades are available under pressure.
func richFirstGraph() *dataflow.Graph {
	return dataflow.NewBuilder().
		AddPE("src", dataflow.Alt("e", 1, 0.1, 1)).
		AddPE("work",
			dataflow.Alt("rich", 1.0, 0.8, 1),
			dataflow.Alt("mid", 0.8, 0.7, 1),
			dataflow.Alt("lean", 0.55, 0.6, 1)).
		AddPE("sink", dataflow.Alt("e", 1, 0.1, 1)).
		Chain("src", "work", "sink").
		MustBuild()
}

func TestAlternateStageDowngradesWhenUnderProvisioned(t *testing.T) {
	// Degraded cloud + fleet cap: the run sits under the throughput band;
	// after a few alternate stages, "work" must run a cheaper alternate
	// than the deployment choice.
	g := richFirstGraph()
	obj, err := PaperSigma(g, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: true, Adaptive: true, Objective: obj})
	prof, _ := rates.NewConstant(20)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Perf:       &trace.Scaled{Base: trace.NewIdeal(), Scale: 0.45},
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 2 * 3600,
		MaxVMs:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(h); err != nil {
		t.Fatal(err)
	}
	deploySel, _ := SelectAlternates(g, Global)
	finalSel := e.Selection()
	deployCost := g.PEs[1].Alternates[deploySel[1]].Cost
	finalCost := g.PEs[1].Alternates[finalSel[1]].Cost
	if finalCost >= deployCost {
		t.Fatalf("no downgrade: deploy cost %v, final %v", deployCost, finalCost)
	}
}

func TestAlternateStageUpgradesWhenOverProvisioned(t *testing.T) {
	// Ideal cloud, trivial load: the run sits above the band and the
	// stage buys value back up to the richest alternate that fits.
	g := alternateBandGraph()
	obj, err := PaperSigma(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Local strategy: xlarge-only allocation leaves slack ECU on work's
	// core, so an upgrade fits the available resources.
	h := MustHeuristic(Options{Strategy: Local, Dynamic: true, Adaptive: true, Objective: obj})
	prof, _ := rates.NewConstant(2)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Perf:       trace.NewIdeal(),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 2 * 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(h); err != nil {
		t.Fatal(err)
	}
	// Deployment picks the best ratio (lean: 0.7/0.3 = 2.33); with ample
	// headroom the stage upgrades toward rich.
	finalSel := e.Selection()
	deploySel, _ := SelectAlternates(g, Global)
	finalVal := g.PEs[1].Alternates[finalSel[1]].Value
	deployVal := g.PEs[1].Alternates[deploySel[1]].Value
	if finalVal <= deployVal {
		t.Fatalf("no upgrade: deploy value %v, final %v", deployVal, finalVal)
	}
}

func TestReleaseIdleHonoursBoundaryWindow(t *testing.T) {
	g := alternateBandGraph()
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	prof, _ := rates.NewConstant(2)
	cfg := sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 3600,
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true, Objective: obj})
	v := sim.NewView(e)
	act := sim.NewActions(e)
	// Acquire an idle VM at t=0; far from its boundary it must survive
	// the release pass.
	id, err := act.AcquireVM("m1.small")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.releaseIdle(v, act); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.VM(id); !ok {
		t.Fatal("idle VM released far from its hour boundary")
	}
	// With a window covering the whole hour it goes immediately.
	h2 := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true,
		Objective: obj, ReleaseWindowSec: 3600})
	if err := h2.releaseIdle(v, act); err != nil {
		t.Fatal(err)
	}
	if _, ok := v.VM(id); ok {
		t.Fatal("idle VM survived a whole-hour release window")
	}
}

func TestConsolidateMergesLightVMs(t *testing.T) {
	g := alternateBandGraph()
	obj := Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}
	prof, _ := rates.NewConstant(2)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(cloud.AWS2013Classes()),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := sim.NewView(e)
	act := sim.NewActions(e)
	// Two xlarges, one core each: consolidation should empty one.
	a, _ := act.AcquireVM("m1.xlarge")
	b, _ := act.AcquireVM("m1.xlarge")
	if err := act.AssignCores(0, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := act.AssignCores(1, b, 1); err != nil {
		t.Fatal(err)
	}
	h := MustHeuristic(Options{Strategy: Global, Dynamic: false, Adaptive: true, Objective: obj})
	if err := h.consolidate(v, act); err != nil {
		t.Fatal(err)
	}
	empty := 0
	for _, vm := range v.ActiveVMs() {
		if vm.UsedCores == 0 {
			empty++
		}
	}
	if empty != 1 {
		t.Fatalf("consolidation emptied %d VMs, want 1", empty)
	}
	// Both PEs still have their core.
	if v.AssignedCores(0) != 1 || v.AssignedCores(1) != 1 {
		t.Fatalf("cores lost: %d / %d", v.AssignedCores(0), v.AssignedCores(1))
	}
}

// referenceConsolidate is the resource stage's consolidation as it was
// before the fleet index: it re-snapshots the fleet per victim and scans for
// each destination's class. It stays as the oracle the indexed consolidate
// must match decision for decision.
func referenceConsolidate(v *sim.View, act sim.Control) error {
	vms := v.ActiveVMs()
	sort.SliceStable(vms, func(i, j int) bool {
		ui := float64(vms[i].UsedCores) / float64(vms[i].Class.Cores)
		uj := float64(vms[j].UsedCores) / float64(vms[j].Class.Cores)
		return ui < uj
	})
	g := v.Graph()
	for _, victim := range vms {
		if victim.UsedCores == 0 {
			continue
		}
		// Gather the victim's chunks.
		type chunk struct{ pe, cores int }
		var chunks []chunk
		for pe := 0; pe < g.N(); pe++ {
			for _, a := range v.Assignments(pe) {
				if a.VMID == victim.ID {
					chunks = append(chunks, chunk{pe: pe, cores: a.Cores})
				}
			}
		}
		// Plan destinations using a free-core snapshot; iterate candidate
		// VMs in id order so tie-breaking is deterministic.
		free := map[int]int{}
		var dstIDs []int
		for _, vm := range vms {
			if vm.ID == victim.ID {
				continue
			}
			free[vm.ID] = vm.FreeCores
			dstIDs = append(dstIDs, vm.ID)
		}
		sort.Ints(dstIDs)
		type move struct{ pe, dst, cores int }
		var moves []move
		ok := true
		for _, c := range chunks {
			ecu := float64(c.cores) * victim.Class.CoreSpeed
			bestDst, bestNeed := -1, 0
			for _, dst := range dstIDs {
				dstClass := classOf(vms, dst)
				// Never consolidate on-demand capacity onto spot VMs: the
				// constraint-critical base must survive reclamations.
				if dstClass.Preemptible && !victim.Class.Preemptible {
					continue
				}
				f := free[dst]
				need := coresNeeded(ecu, dstClass)
				if need == 0 {
					need = 1
				}
				if need <= f && (bestDst < 0 || f-need < free[bestDst]-bestNeed) {
					bestDst, bestNeed = dst, need
				}
			}
			if bestDst < 0 {
				ok = false
				break
			}
			free[bestDst] -= bestNeed
			moves = append(moves, move{pe: c.pe, dst: bestDst, cores: bestNeed})
		}
		if !ok {
			continue
		}
		for i, m := range moves {
			if err := act.AssignCores(m.pe, m.dst, m.cores); err != nil {
				return err
			}
			if err := act.UnassignCores(chunks[i].pe, victim.ID, chunks[i].cores); err != nil {
				return err
			}
		}
		return nil // one consolidation per stage damps churn
	}
	return nil
}

func classOf(vms []sim.VMInfo, id int) *cloud.Class {
	for _, vm := range vms {
		if vm.ID == id {
			return vm.Class
		}
	}
	return nil
}

// randomFleet builds one seeded fleet on a fresh audited engine: a chain of
// PEs over a menu mixing on-demand and spot classes, VMs filled with chunks
// of several PEs to a per-fleet fullness (sparse fleets consolidate, dense
// ones do not), and a few empty VMs released so VM ids have gaps. Every
// fourth fleet is uniform — one class, one fill — so victims tie on
// utilization and destinations tie on best fit. The same seed builds the
// same fleet.
func randomFleet(t *testing.T, seed int64) (*sim.Engine, *sim.View, *sim.Actions) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	classes := cloud.WithSpotMarket(cloud.AWS2013Classes(), 0.3)
	if r.Intn(2) == 0 {
		classes = cloud.WithSpotMarket([]*cloud.Class{
			{Name: "c1", Cores: 2, CoreSpeed: 1.5, NetMbps: 100, PricePerHour: 0.1},
			{Name: "c2", Cores: 3, CoreSpeed: 1.0, NetMbps: 100, PricePerHour: 0.1},
			{Name: "c3", Cores: 8, CoreSpeed: 2.5, NetMbps: 100, PricePerHour: 0.9},
		}, 0.3)
	}
	nPE := 2 + r.Intn(10)
	b := dataflow.NewBuilder()
	names := make([]string, nPE)
	for i := range names {
		names[i] = fmt.Sprintf("pe%d", i)
		b.AddPE(names[i], dataflow.Alt("a", 1, 0.1, 1))
	}
	g := b.Chain(names...).MustBuild()
	prof, _ := rates.NewConstant(1)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       cloud.MustMenu(classes),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 3600,
		Audit:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, act := sim.NewView(e), sim.NewActions(e)
	uniform := seed%4 == 0
	class := classes[r.Intn(len(classes))]
	fill := 0.1 + 0.9*r.Float64()
	uniformUsed := 1 + r.Intn(class.Cores)
	nVM := 2 + r.Intn(12)
	for i := 0; i < nVM; i++ {
		if !uniform {
			class = classes[r.Intn(len(classes))]
		}
		id, err := act.AcquireVM(class.Name)
		if err != nil {
			t.Fatal(err)
		}
		used := 0
		if uniform {
			used = uniformUsed
		} else {
			for c := 0; c < class.Cores; c++ {
				if r.Float64() < fill {
					used++
				}
			}
		}
		if used == 0 && r.Intn(3) == 0 {
			if err := act.ReleaseVM(id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for used > 0 {
			n := 1 + r.Intn(used)
			if err := act.AssignCores(r.Intn(nPE), id, n); err != nil {
				t.Fatal(err)
			}
			used -= n
		}
	}
	return e, v, act
}

// fleetState is everything consolidation may change: every VM's class, use
// and lifecycle, and every PE's allocation.
func fleetState(e *sim.Engine, v *sim.View) string {
	out := ""
	for _, vm := range e.Fleet().All() {
		out += fmt.Sprintf("vm%d %s used=%d stop=%d\n", vm.ID, vm.Class.Name, vm.UsedCores, vm.StopSec)
	}
	for pe := 0; pe < v.Graph().N(); pe++ {
		out += fmt.Sprintf("pe%d %v\n", pe, v.Assignments(pe))
	}
	return out
}

// TestConsolidateMatchesReference runs the indexed consolidate and the
// reference on identical seeded fleets and requires the same actions, in
// the same order, and the same fleet and assignments afterwards. One
// Heuristic serves every fleet, so stale scratch from a larger fleet must
// never leak into a smaller one.
func TestConsolidateMatchesReference(t *testing.T) {
	h := MustHeuristic(Options{Strategy: Global, Adaptive: true,
		Objective: Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}})
	var moved, stayed, tiedMoved int
	for seed := int64(1); seed <= 400; seed++ {
		refE, refV, refAct := randomFleet(t, seed)
		gotE, gotV, gotAct := randomFleet(t, seed)
		before := len(refE.AuditLog())
		if err := referenceConsolidate(refV, refAct); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if err := h.consolidate(gotV, gotAct); err != nil {
			t.Fatalf("seed %d: consolidate: %v", seed, err)
		}
		want, got := refE.AuditLog(), gotE.AuditLog()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: audit logs differ:\ngot  %+v\nwant %+v", seed, got[before:], want[before:])
		}
		if gs, ws := fleetState(gotE, gotV), fleetState(refE, refV); gs != ws {
			t.Fatalf("seed %d: fleet state differs:\ngot\n%s\nwant\n%s", seed, gs, ws)
		}
		switch {
		case len(want) == before:
			stayed++
		case seed%4 == 0:
			tiedMoved++
			moved++
		default:
			moved++
		}
	}
	if moved < 40 || stayed < 40 || tiedMoved < 10 {
		t.Fatalf("fleets too one-sided: %d consolidated (%d uniform), %d left alone", moved, tiedMoved, stayed)
	}
	t.Logf("%d fleets consolidated (%d uniform), %d left alone", moved, tiedMoved, stayed)
}

// TestAddCoreKeepsFleetSnapshot drives addCore the way the grow loop does —
// one fleet snapshot, many calls — through every path: a free core, a
// reservation on a booting VM, an acquisition that boots at once or later,
// a failed acquisition, and the fleet cap. After each call the snapshot
// must equal a fresh ActiveVMs.
func TestAddCoreKeepsFleetSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c", "d"}
		b := dataflow.NewBuilder()
		for _, n := range names {
			b.AddPE(n, dataflow.Alt("x", 1, 0.1, 1))
		}
		g := b.Chain(names...).MustBuild()
		prof, _ := rates.NewConstant(1)
		e, err := sim.NewEngine(sim.Config{
			Graph:      g,
			Menu:       spotMenu(),
			Inputs:     map[int]rates.Profile{0: prof},
			HorizonSec: 3600,
			MaxVMs:     4 + r.Intn(8),
			ControlFaults: &sim.ControlFaults{
				Provisioning: &sim.ProvisioningFaults{MeanBootSec: int64(r.Intn(2)) * 120},
				Acquisition:  &sim.AcquisitionFaults{FailProb: 0.3},
				Seed:         seed,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		v, act := sim.NewView(e), sim.NewActions(e)
		strategy := Global
		if seed%2 == 0 {
			strategy = Local
		}
		h := MustHeuristic(Options{Strategy: strategy, Adaptive: true,
			Objective: Objective{OmegaHat: 0.7, Epsilon: 0.05, Sigma: 0.01}})
		h.scratch.vms = v.ActiveVMsInto(h.scratch.vms[:0])
		for i := 0; i < 60; i++ {
			var dec *obs.Decision
			if r.Intn(2) == 0 {
				dec = &obs.Decision{}
			}
			if _, err := h.addCore(v, act, r.Intn(g.N()), 8*r.Float64(), r.Intn(3) == 0, dec); err != nil {
				t.Fatalf("seed %d call %d: %v", seed, i, err)
			}
			if got, want := h.scratch.vms, v.ActiveVMs(); !slices.Equal(got, want) {
				t.Fatalf("seed %d call %d: snapshot drifted from the fleet:\ngot  %+v\nwant %+v", seed, i, got, want)
			}
		}
	}
}
