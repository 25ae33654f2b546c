package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/sim"
)

// checkPlanInvariants verifies the structural invariants every plan must
// keep: no VM core oversubscription, non-empty VMs, chunks with positive
// cores in strictly ascending PE order summing to UsedCores, and every
// PE's last VM a planned VM that hosts it.
func checkPlanInvariants(t *testing.T, p *Plan) {
	t.Helper()
	if err := planInvariantError(p); err != nil {
		t.Fatal(err)
	}
}

func planInvariantError(p *Plan) error {
	planned := map[*PlanVM]bool{}
	for i, vm := range p.VMs {
		planned[vm] = true
		if vm.UsedCores() == 0 {
			return fmt.Errorf("plan kept an empty VM at %d", i)
		}
		if vm.UsedCores() > vm.Class.Cores {
			return fmt.Errorf("VM %d (%s) oversubscribed: %d/%d", i, vm.Class.Name, vm.UsedCores(), vm.Class.Cores)
		}
		sum := 0
		for k, c := range vm.chunks {
			if c.cores <= 0 {
				return fmt.Errorf("VM %d: non-positive chunk for PE %d", i, c.pe)
			}
			if c.pe < 0 || k > 0 && c.pe <= vm.chunks[k-1].pe {
				return fmt.Errorf("VM %d: chunk PEs not strictly ascending: %v", i, vm.chunks)
			}
			sum += c.cores
		}
		if sum != vm.UsedCores() {
			return fmt.Errorf("VM %d: UsedCores %d, chunks sum to %d", i, vm.UsedCores(), sum)
		}
	}
	for pe, vm := range p.lastVM {
		if vm != nil && (!planned[vm] || vm.coresOf(pe) == 0) {
			return fmt.Errorf("PE %d's last VM does not host it", pe)
		}
	}
	return nil
}

func TestPropertyPlanNeverOversubscribes(t *testing.T) {
	for _, menu := range []*cloud.Menu{awsMenu(), nonDyadicMenu()} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := dataflow.EvalGraph()
			sel := dataflow.DefaultSelection(g)
			for i := range sel {
				sel[i] = rng.Intn(len(g.PEs[i].Alternates))
			}
			rate := 1 + rng.Float64()*49
			plan, err := PlanAllocation(g, menu, sel, dataflow.DefaultRouting(g),
				dataflow.InputRates{0: rate}, 0.7, Strategy(rng.Intn(2)))
			if err != nil || planInvariantError(plan) != nil {
				return false
			}
			// Predicted throughput meets the target.
			flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), dataflow.InputRates{0: rate})
			if err != nil {
				return false
			}
			omega, _ := flow.Capped(plan.Capacities(g, sel))
			return omega >= 0.7-1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s menu: %v", menu.Largest().Name, err)
		}
	}
}

func TestPropertyRepackPreservesCapacity(t *testing.T) {
	// IterativeRepack and Downgrade must never reduce any PE's rated
	// capacity (they convert cores at ceil(n*s/s')).
	for _, menu := range []*cloud.Menu{awsMenu(), nonDyadicMenu()} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			p := NewPlan(menu)
			nPEs := 2 + rng.Intn(5)
			for pe := 0; pe < nPEs; pe++ {
				cores := 1 + rng.Intn(6)
				for i := 0; i < cores; i++ {
					p.AddCore(pe)
				}
			}
			before := p.ECUs(nPEs)
			p.IterativeRepack()
			p.Downgrade()
			after := p.ECUs(nPEs)
			for pe := range before {
				if after[pe] < before[pe]-1e-9 {
					return false
				}
			}
			return planInvariantError(p) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Fatalf("%s menu: %v", menu.Largest().Name, err)
		}
	}
}

func TestPropertyRepackNeverIncreasesCost(t *testing.T) {
	menu := awsMenu()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPlan(menu)
		nPEs := 2 + rng.Intn(5)
		for pe := 0; pe < nPEs; pe++ {
			for i := 0; i < 1+rng.Intn(5); i++ {
				p.AddCore(pe)
			}
		}
		before := p.HourlyCost()
		p.IterativeRepack()
		p.Downgrade()
		return p.HourlyCost() <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeRoundTrip(t *testing.T) {
	// Materializing a plan through the engine reproduces exactly the
	// planned per-PE ECUs and hourly burn rate.
	g := dataflow.EvalGraph()
	sel, err := SelectAlternates(g, dataflow.DefaultRouting(g), Global)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanAllocation(g, awsMenu(), sel, dataflow.DefaultRouting(g),
		dataflow.InputRates{0: 15}, 0.7, Global)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, plan)
	prof, _ := rates.NewConstant(15)
	e, err := sim.NewEngine(sim.Config{
		Graph:      g,
		Menu:       awsMenu(),
		Inputs:     map[int]rates.Profile{0: prof},
		HorizonSec: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	mat := &materializer{plan: plan, sel: sel}
	if _, err := e.Run(mat); err != nil {
		t.Fatal(err)
	}
	v := sim.NewView(e)
	wantECU := plan.ECUs(g.N())
	for pe := 0; pe < g.N(); pe++ {
		got := 0.0
		for _, a := range v.Assignments(pe) {
			vm, _ := v.VM(a.VMID)
			got += float64(a.Cores) * vm.Class.CoreSpeed
		}
		if diff := got - wantECU[pe]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("PE %d: materialized %v ECU, planned %v", pe, got, wantECU[pe])
		}
	}
	if diff := v.HourlyBurnRate() - plan.HourlyCost(); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("burn rate %v != planned %v", v.HourlyBurnRate(), plan.HourlyCost())
	}
}

type materializer struct {
	plan *Plan
	sel  dataflow.Selection
}

func (m *materializer) Name() string { return "materializer" }
func (m *materializer) Deploy(v *sim.View, act sim.Control) error {
	for pe, alt := range m.sel {
		if err := act.SelectAlternate(pe, alt); err != nil {
			return err
		}
	}
	return m.plan.Materialize(act)
}
func (m *materializer) Adapt(*sim.View, sim.Control) error { return nil }

func TestMenuWithoutMediumStillPlans(t *testing.T) {
	// A menu missing 1-core classes exercises the ceil conversions.
	menu := cloud.MustMenu([]*cloud.Class{
		{Name: "large", Cores: 2, CoreSpeed: 2, NetMbps: 100, PricePerHour: 0.24},
		{Name: "xlarge", Cores: 4, CoreSpeed: 2, NetMbps: 100, PricePerHour: 0.48},
	})
	g := dataflow.Fig1Graph()
	sel := dataflow.DefaultSelection(g)
	plan, err := PlanAllocation(g, menu, sel, dataflow.DefaultRouting(g),
		dataflow.InputRates{0: 8}, 0.7, Global)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanInvariants(t, plan)
	flow, err := dataflow.NewRoutedFlow(g, sel, dataflow.DefaultRouting(g), dataflow.InputRates{0: 8})
	if err != nil {
		t.Fatal(err)
	}
	if omega, _ := flow.Capped(plan.Capacities(g, sel)); omega < 0.7-1e-9 {
		t.Fatalf("omega %v", omega)
	}
}

// The reference planner below is the map-based planner that the chunk-list
// Plan replaced, kept verbatim apart from its names: per-VM core maps,
// AddCore scanning from the first VM, one evacuation map over the whole
// plan per victim, and PlanAllocation's two growth loops re-scoring the
// plan from scratch for every added core. TestPlanAllocationMatchesReference
// diffs the two.

// referencePlanVM is a virtual VM used while planning the initial deployment. The
// planner packs cores onto virtual VMs, repacks freely (nothing is billed
// yet), and only then materializes the plan through sim.Actions.
type referencePlanVM struct {
	Class *cloud.Class
	// Cores maps PE index -> cores of this VM assigned to it.
	Cores map[int]int
}

// UsedCores sums the assigned cores.
func (pv *referencePlanVM) UsedCores() int {
	n := 0
	for _, c := range pv.Cores {
		n += c
	}
	return n
}

// FreeCores returns the unassigned cores.
func (pv *referencePlanVM) FreeCores() int { return pv.Class.Cores - pv.UsedCores() }

// ECUFor returns the rated capacity (standard-core-sec/s) this VM provides
// to the PE.
func (pv *referencePlanVM) ECUFor(pe int) float64 {
	return float64(pv.Cores[pe]) * pv.Class.CoreSpeed
}

// referencePlan is a full virtual deployment.
type referencePlan struct {
	menu *cloud.Menu
	VMs  []*referencePlanVM
	// lastVM remembers where each PE's most recent core went — the paper's
	// RepackPE moves a PE's "last instance".
	lastVM map[int]*referencePlanVM
}

// newReferencePlan returns an empty plan over the menu.
func newReferencePlan(menu *cloud.Menu) *referencePlan {
	return &referencePlan{menu: menu, lastVM: map[int]*referencePlanVM{}}
}

// HourlyCost prices the planned fleet.
func (p *referencePlan) HourlyCost() float64 {
	c := 0.0
	for _, vm := range p.VMs {
		c += vm.Class.PricePerHour
	}
	return c
}

// ECUs returns the planned rated capacity per PE in standard cores.
func (p *referencePlan) ECUs(n int) []float64 {
	out := make([]float64, n)
	for _, vm := range p.VMs {
		for pe, cores := range vm.Cores {
			out[pe] += float64(cores) * vm.Class.CoreSpeed
		}
	}
	return out
}

// Capacities converts planned ECUs into msg/s per PE under the selection.
func (p *referencePlan) Capacities(g *dataflow.Graph, sel dataflow.Selection) []float64 {
	ecus := p.ECUs(g.N())
	caps := make([]float64, g.N())
	for i := range caps {
		caps[i] = ecus[i] / sel.Alt(g, i).Cost
	}
	return caps
}

// AddCore gives PE pe one more core following Alg. 1's placement rule: a
// free core on the VM that last received this PE (collocating instances of
// a PE), then any open largest-class VM with a free core (collocating
// neighbouring PEs), then a newly instantiated VM of the largest class.
func (p *referencePlan) AddCore(pe int) {
	if vm := p.lastVM[pe]; vm != nil && vm.FreeCores() > 0 {
		vm.Cores[pe]++
		return
	}
	largest := p.menu.Largest()
	for _, vm := range p.VMs {
		if vm.Class == largest && vm.FreeCores() > 0 {
			vm.Cores[pe]++
			p.lastVM[pe] = vm
			return
		}
	}
	vm := &referencePlanVM{Class: largest, Cores: map[int]int{pe: 1}}
	p.VMs = append(p.VMs, vm)
	p.lastVM[pe] = vm
}

// RepackPE implements the global strategy's per-PE repack (Table 1): for
// every over-provisioned PE, move its cores on its last VM to the smallest
// class large enough for the work they actually carry. demandECU gives each
// PE's required rated capacity.
func (p *referencePlan) RepackPE(demandECU []float64) {
	pes := make([]int, 0, len(p.lastVM))
	for pe := range p.lastVM {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	for _, pe := range pes {
		last := p.lastVM[pe]
		if last == nil || last.Cores[pe] == 0 {
			continue
		}
		totalECU := 0.0
		for _, vm := range p.VMs {
			totalECU += vm.ECUFor(pe)
		}
		if pe >= len(demandECU) || totalECU <= demandECU[pe]+1e-9 {
			continue // not over-provisioned
		}
		otherECU := totalECU - last.ECUFor(pe)
		residual := demandECU[pe] - otherECU
		if residual <= 0 {
			// The last instance is entirely redundant beyond rounding;
			// keep a single smallest core for liveness.
			residual = 1e-9
		}
		smallest := p.menu.SmallestFitting(residual)
		if smallest == nil || smallest.PricePerHour >= last.Class.PricePerHour {
			continue
		}
		cores := coresNeeded(residual, smallest)
		if cores == 0 {
			cores = 1
		}
		if cores > smallest.Cores {
			continue
		}
		// Move: strip from the last VM, open a dedicated small VM.
		delete(last.Cores, pe)
		nv := &referencePlanVM{Class: smallest, Cores: map[int]int{pe: cores}}
		p.VMs = append(p.VMs, nv)
		p.lastVM[pe] = nv
	}
	p.dropEmpty()
}

// IterativeRepack empties lightly used VMs by relocating their core chunks
// into free cores elsewhere (the global strategy's RepackFreeVMs). A chunk
// of n cores at speed s needs ceil(n*s/s') cores at the destination so the
// PE keeps its rated capacity.
func (p *referencePlan) IterativeRepack() {
	for {
		sort.SliceStable(p.VMs, func(i, j int) bool {
			ui := float64(p.VMs[i].UsedCores()) / float64(p.VMs[i].Class.Cores)
			uj := float64(p.VMs[j].UsedCores()) / float64(p.VMs[j].Class.Cores)
			return ui < uj
		})
		moved := false
		for vi, victim := range p.VMs {
			if victim.UsedCores() == 0 {
				continue
			}
			if plan, ok := p.planEvacuation(vi); ok {
				p.applyEvacuation(vi, plan)
				moved = true
				break
			}
		}
		if !moved {
			break
		}
		p.dropEmpty()
	}
	p.dropEmpty()
}

type referenceCoreMove struct {
	pe    int
	dst   *referencePlanVM
	cores int
}

func (p *referencePlan) planEvacuation(victimIdx int) ([]referenceCoreMove, bool) {
	victim := p.VMs[victimIdx]
	free := map[*referencePlanVM]int{}
	var candidates []*referencePlanVM
	for i, vm := range p.VMs {
		if i == victimIdx {
			continue
		}
		free[vm] = vm.FreeCores()
		candidates = append(candidates, vm)
	}
	// Iterate victims' PEs and candidate VMs in stable order so the plan
	// is deterministic.
	pes := make([]int, 0, len(victim.Cores))
	for pe := range victim.Cores {
		pes = append(pes, pe)
	}
	sort.Ints(pes)
	var moves []referenceCoreMove
	for _, pe := range pes {
		n := victim.Cores[pe]
		ecu := float64(n) * victim.Class.CoreSpeed
		placed := false
		// Best fit: destination with the least sufficient free capacity.
		var bestVM *referencePlanVM
		bestNeed := 0
		for _, vm := range candidates {
			f := free[vm]
			need := coresNeeded(ecu, vm.Class)
			if need == 0 {
				need = 1
			}
			if need <= f {
				if bestVM == nil || f-need < free[bestVM]-bestNeed {
					bestVM = vm
					bestNeed = need
				}
			}
		}
		if bestVM != nil {
			free[bestVM] -= bestNeed
			moves = append(moves, referenceCoreMove{pe: pe, dst: bestVM, cores: bestNeed})
			placed = true
		}
		if !placed {
			return nil, false
		}
	}
	return moves, true
}

func (p *referencePlan) applyEvacuation(victimIdx int, moves []referenceCoreMove) {
	victim := p.VMs[victimIdx]
	for _, m := range moves {
		m.dst.Cores[m.pe] += m.cores
		if p.lastVM[m.pe] == victim {
			p.lastVM[m.pe] = m.dst
		}
	}
	victim.Cores = map[int]int{}
}

// Downgrade replaces every planned VM's class with the cheapest class that
// still hosts its chunks at no capacity loss.
func (p *referencePlan) Downgrade() {
	for _, vm := range p.VMs {
		if vm.UsedCores() == 0 {
			continue
		}
		var best *cloud.Class
		var bestCores map[int]int
		for _, c := range p.menu.Classes() {
			if c.PricePerHour >= vm.Class.PricePerHour {
				continue
			}
			need := map[int]int{}
			total := 0
			ok := true
			for pe, n := range vm.Cores {
				cn := coresNeeded(float64(n)*vm.Class.CoreSpeed, c)
				if cn == 0 {
					cn = 1
				}
				need[pe] = cn
				total += cn
			}
			if total > c.Cores {
				ok = false
			}
			if ok && (best == nil || c.PricePerHour < best.PricePerHour) {
				best = c
				bestCores = need
			}
		}
		if best != nil {
			vm.Class = best
			vm.Cores = bestCores
		}
	}
	p.dropEmpty()
}

func (p *referencePlan) dropEmpty() {
	out := p.VMs[:0]
	for _, vm := range p.VMs {
		if vm.UsedCores() > 0 {
			out = append(out, vm)
		}
	}
	p.VMs = out
}

// referencePlanAllocation performs Alg. 1's resource-allocation stage: give every PE
// one core in forward-BFS order (collocating neighbours), then repeatedly
// grow the bottleneck PE — the one with the lowest predicted relative
// throughput — until the predicted application throughput reaches target.
// The global strategy then repacks (RepackPE + iterative repacking +
// downgrade). Rates are the estimated input rates; VM performance is
// assumed rated, as the paper does at deployment time.
func referencePlanAllocation(g *dataflow.Graph, menu *cloud.Menu, sel dataflow.Selection,
	routing dataflow.Routing, est dataflow.InputRates, target float64, strategy Strategy) (*referencePlan, error) {
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("core: allocation target %v outside (0,1]", target)
	}
	plan := newReferencePlan(menu)
	for _, pe := range g.ForwardBFS() {
		plan.AddCore(pe)
	}
	// Incremental bottleneck-driven growth (INCREMENTAL_ALLOCATION),
	// scoring each allocation's capacities against one prepared flow.
	flow, err := dataflow.NewRoutedFlow(g, sel, routing, est)
	if err != nil {
		return nil, err
	}
	inRate := flow.InRates()
	maxCores := 64 * g.N() * (1 + int(totalRate(est)))
	for iter := 0; ; iter++ {
		omega, th := flow.Capped(plan.Capacities(g, sel))
		if omega >= target-1e-9 {
			break
		}
		if iter > maxCores {
			return nil, fmt.Errorf("core: allocation did not converge after %d cores (omega %.3f < %.3f)", iter, omega, target)
		}
		bottleneck := -1
		worst := math.Inf(1)
		for pe := 0; pe < g.N(); pe++ {
			if inRate[pe] <= 0 {
				continue
			}
			if th[pe] < worst {
				worst = th[pe]
				bottleneck = pe
			}
		}
		if bottleneck < 0 {
			break // nothing carries load; one core each suffices
		}
		plan.AddCore(bottleneck)
	}
	if strategy == Global {
		demand := make([]float64, g.N())
		for pe := 0; pe < g.N(); pe++ {
			demand[pe] = inRate[pe] * sel.Alt(g, pe).Cost * target
		}
		plan.RepackPE(demand)
		plan.IterativeRepack()
		plan.Downgrade()
		// Repacking may round capacities down; restore the target if the
		// integral-core conversions cost throughput.
		plan.restore(g, sel, flow, target, maxCores)
	}
	return plan, nil
}

// restore is referencePlanAllocation's second growth loop.
func (plan *referencePlan) restore(g *dataflow.Graph, sel dataflow.Selection, flow *dataflow.RoutedFlow,
	target float64, maxCores int) {
	inRate := flow.InRates()
	for iter := 0; iter <= maxCores; iter++ {
		omega, th := flow.Capped(plan.Capacities(g, sel))
		if omega >= target-1e-9 {
			break
		}
		bottleneck, worst := -1, math.Inf(1)
		for pe := 0; pe < g.N(); pe++ {
			if inRate[pe] > 0 && th[pe] < worst {
				worst = th[pe]
				bottleneck = pe
			}
		}
		if bottleneck < 0 {
			break
		}
		plan.AddCore(bottleneck)
	}
}

// nonDyadicMenu has core speeds with no exact binary form, so a PE's
// capacity depends on the order its hosts are summed in, and a largest
// class (by capacity) cheaper than a smaller one, so Downgrade can turn a
// VM into an open largest-class VM ahead of AddCore's scan.
func nonDyadicMenu() *cloud.Menu {
	return cloud.MustMenu([]*cloud.Class{
		{Name: "nd.small", Cores: 1, CoreSpeed: 0.7, NetMbps: 100, PricePerHour: 0.05},
		{Name: "nd.medium", Cores: 2, CoreSpeed: 1.3, NetMbps: 100, PricePerHour: 0.19},
		{Name: "nd.large", Cores: 4, CoreSpeed: 1.1, NetMbps: 100, PricePerHour: 0.41},
		{Name: "nd.xlarge", Cores: 6, CoreSpeed: 0.9, NetMbps: 100, PricePerHour: 0.38},
	})
}

// diffPlans reports the first difference between a reference plan and a
// plan: VM order, class, chunks, per-PE ECU and hourly-cost float bits, and
// the position of every PE's last VM.
func diffPlans(ref *referencePlan, got *Plan) error {
	if len(ref.VMs) != len(got.VMs) {
		return fmt.Errorf("%d VMs, reference %d", len(got.VMs), len(ref.VMs))
	}
	n := len(got.lastVM)
	for pe := range ref.lastVM {
		n = max(n, pe+1)
	}
	for i, rv := range ref.VMs {
		gv := got.VMs[i]
		if rv.Class != gv.Class {
			return fmt.Errorf("VM %d: class %s, reference %s", i, gv.Class.Name, rv.Class.Name)
		}
		want := make([]planChunk, 0, len(rv.Cores))
		for pe, c := range rv.Cores {
			want = append(want, planChunk{pe: pe, cores: c})
			n = max(n, pe+1)
		}
		sort.Slice(want, func(a, b int) bool { return want[a].pe < want[b].pe })
		if !slices.Equal(want, gv.chunks) {
			return fmt.Errorf("VM %d: chunks %v, reference %v", i, gv.chunks, want)
		}
	}
	wantECU, gotECU := ref.ECUs(n), got.ECUs(n)
	for pe := range wantECU {
		if math.Float64bits(gotECU[pe]) != math.Float64bits(wantECU[pe]) {
			return fmt.Errorf("PE %d: ECU %v, reference %v", pe, gotECU[pe], wantECU[pe])
		}
	}
	if math.Float64bits(got.HourlyCost()) != math.Float64bits(ref.HourlyCost()) {
		return fmt.Errorf("hourly cost %v, reference %v", got.HourlyCost(), ref.HourlyCost())
	}
	for pe := 0; pe < n; pe++ {
		if g, r := slices.Index(got.VMs, got.last(pe)), slices.Index(ref.VMs, ref.lastVM[pe]); g != r {
			return fmt.Errorf("PE %d: last VM at %d, reference %d", pe, g, r)
		}
	}
	return nil
}

// TestPlanAllocationMatchesReference requires the chunk-list planner to
// make every decision the map-based reference makes. It plans seeded
// inputs both ways — the Fig. 1, evaluation, 8x4x10 layered and choice
// graphs plus random layered shapes; the AWS and a non-dyadic menu; local
// and global; zero, low and high rates; default and random selections;
// four targets — and drives hand-built plans of random classes through
// AddCore, RepackPE, IterativeRepack, Downgrade and the growth loop,
// diffing the plans after every call. AddCore goes through the growth
// loop's capacity tracker, whose capacities must equal Capacities bit for
// bit after every core.
func TestPlanAllocationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	menus := []*cloud.Menu{awsMenu(), nonDyadicMenu()}
	t.Run("allocation", func(t *testing.T) {
		graphs := []*dataflow.Graph{dataflow.Fig1Graph(), dataflow.EvalGraph(), dataflow.LayeredGraph(8, 4, 10), pathGraph()}
		for i := 0; i < 3; i++ {
			graphs = append(graphs, dataflow.LayeredGraph(1+rng.Intn(6), 1+rng.Intn(4), 1+rng.Intn(4)))
		}
		for gi, g := range graphs {
			for mi, menu := range menus {
				for _, strategy := range []Strategy{Local, Global} {
					for _, scale := range []float64{0, 4, 24} {
						for _, randomSel := range []bool{false, true} {
							for _, target := range []float64{0.5, 0.7, 0.75, 1} {
								sel := dataflow.DefaultSelection(g)
								if randomSel {
									for pe := range sel {
										sel[pe] = rng.Intn(len(g.PEs[pe].Alternates))
									}
								}
								routing := dataflow.DefaultRouting(g)
								for i, c := range g.Choices {
									routing[i] = rng.Intn(len(c.Targets))
								}
								est := dataflow.InputRates{}
								for _, pe := range g.Inputs() {
									est[pe] = scale * (0.5 + rng.Float64())
								}
								name := fmt.Sprintf("graph %d menu %d %s rates %v sel %v target %v", gi, mi, strategy, est, sel, target)
								want, wantErr := referencePlanAllocation(g, menu, sel, routing, est, target, strategy)
								got, err := PlanAllocation(g, menu, sel, routing, est, target, strategy)
								if fmt.Sprint(err) != fmt.Sprint(wantErr) {
									t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
								}
								if wantErr != nil {
									continue
								}
								if err := planInvariantError(got); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								if err := diffPlans(want, got); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
							}
						}
					}
				}
			}
		}
	})
	t.Run("ops", func(t *testing.T) {
		for trial := 0; trial < 400; trial++ {
			menu := menus[trial%len(menus)]
			classes := menu.Classes()
			ref, got := newReferencePlan(menu), NewPlan(menu)
			// The plans host the PEs of a small layered graph, so that
			// the growth loop can run on them too.
			g := dataflow.LayeredGraph(1+rng.Intn(3), 1+rng.Intn(3), 2)
			sel := dataflow.DefaultSelection(g)
			for pe := range sel {
				sel[pe] = rng.Intn(len(g.PEs[pe].Alternates))
			}
			routing, est := dataflow.DefaultRouting(g), dataflow.InputRates{0: 0.5 + rng.Float64()*8}
			target := []float64{0.5, 0.7, 0.75, 1}[rng.Intn(4)]
			maxCores := 64 * g.N() * (1 + int(totalRate(est)))
			nPEs := g.N()
			for i := rng.Intn(14); i > 0; i-- {
				class := classes[rng.Intn(len(classes))]
				rv := &referencePlanVM{Class: class, Cores: map[int]int{}}
				ref.VMs = append(ref.VMs, rv)
				gv := got.openVM(class)
				for free := class.Cores; free > 0 && (len(rv.Cores) == 0 || rng.Intn(3) > 0); {
					pe, n := rng.Intn(nPEs), 1+rng.Intn(free)
					rv.Cores[pe] += n
					gv.add(pe, n)
					free -= n
				}
			}
			// Even trials run the chain AddCore → RepackPE →
			// IterativeRepack → Downgrade → AddCore; odd ones a random
			// sequence of the same calls and the growth loop.
			for step := 0; step < 10; step++ {
				op := step % 4
				if trial%2 == 1 {
					op = rng.Intn(5)
				}
				switch op {
				case 0:
					caps := got.trackCapacities(g, sel)
					for k := 1 + rng.Intn(12); k > 0; k-- {
						pe := rng.Intn(nPEs)
						ref.AddCore(pe)
						caps.addCore(pe)
						for pe, c := range got.Capacities(g, sel) {
							if math.Float64bits(caps.caps[pe]) != math.Float64bits(c) {
								t.Fatalf("trial %d step %d: tracked capacity of PE %d is %v, plan's %v", trial, step, pe, caps.caps[pe], c)
							}
						}
					}
				case 1:
					demand := make([]float64, rng.Intn(nPEs+1))
					for pe := range demand {
						demand[pe] = rng.Float64() * 8
					}
					ref.RepackPE(demand)
					got.RepackPE(demand)
				case 2:
					ref.IterativeRepack()
					got.IterativeRepack()
				case 3:
					ref.Downgrade()
					got.Downgrade()
				case 4:
					refFlow, err := dataflow.NewRoutedFlow(g, sel, routing, est)
					if err != nil {
						t.Fatal(err)
					}
					flow, err := dataflow.NewRoutedFlow(g, sel, routing, est)
					if err != nil {
						t.Fatal(err)
					}
					ref.restore(g, sel, refFlow, target, maxCores)
					if err := got.grow(g, sel, flow, target, maxCores); err != nil {
						t.Fatal(err)
					}
				}
				if err := planInvariantError(got); err != nil {
					t.Fatalf("trial %d step %d (op %d): %v", trial, step, op, err)
				}
				if err := diffPlans(ref, got); err != nil {
					t.Fatalf("trial %d step %d (op %d): %v", trial, step, op, err)
				}
			}
		}
	})
}
