package dataflow

import "fmt"

// ChoiceGroup declares choice semantics on one PE's output port (§3 lists
// choice among the supported edge semantics; §9 proposes "dynamic paths" —
// alternate implementations at the granularity of a subset of the graph).
// Messages emitted by From route to exactly ONE of Targets — the active
// route — instead of being duplicated onto all of them. Switching the
// active route at runtime switches the whole downstream sub-path, giving
// the scheduler the coarser-grained control knob of the paper's future
// work.
type ChoiceGroup struct {
	// Name identifies the group (unique within the graph).
	Name string
	// From is the PE whose output port carries choice semantics.
	From int
	// Targets are the successor PEs of From that participate in the
	// choice; each must be connected by an edge From->target. Successors
	// of From outside any group keep and-split duplication.
	Targets []int
}

// Routing selects the active target index for every choice group, parallel
// to Graph.Choices.
type Routing []int

// DefaultRouting activates target 0 of every group.
func DefaultRouting(g *Graph) Routing {
	return make(Routing, len(g.Choices))
}

// Validate checks the routing against the graph.
func (r Routing) Validate(g *Graph) error {
	if len(r) != len(g.Choices) {
		return fmt.Errorf("dataflow: routing covers %d groups, graph has %d", len(r), len(g.Choices))
	}
	for i, t := range r {
		if t < 0 || t >= len(g.Choices[i].Targets) {
			return fmt.Errorf("dataflow: routing for group %q: target %d out of range", g.Choices[i].Name, t)
		}
	}
	return nil
}

// Clone returns an independent copy.
func (r Routing) Clone() Routing {
	return append(Routing(nil), r...)
}

// validateChoices checks the group declarations; called from Validate.
func (g *Graph) validateChoices() error {
	seenName := map[string]bool{}
	owner := map[int]string{} // target PE -> group that claims it
	for _, c := range g.Choices {
		if c.Name == "" {
			return fmt.Errorf("dataflow: choice group with empty name")
		}
		if seenName[c.Name] {
			return fmt.Errorf("dataflow: duplicate choice group %q", c.Name)
		}
		seenName[c.Name] = true
		if c.From < 0 || c.From >= g.N() {
			return fmt.Errorf("dataflow: choice group %q: from PE %d out of range", c.Name, c.From)
		}
		if len(c.Targets) < 2 {
			return fmt.Errorf("dataflow: choice group %q needs >= 2 targets", c.Name)
		}
		succ := map[int]bool{}
		for _, s := range g.Successors(c.From) {
			succ[s] = true
		}
		seenTarget := map[int]bool{}
		for _, t := range c.Targets {
			if !succ[t] {
				return fmt.Errorf("dataflow: choice group %q: %q is not a successor of %q",
					c.Name, g.PEs[t].Name, g.PEs[c.From].Name)
			}
			if seenTarget[t] {
				return fmt.Errorf("dataflow: choice group %q: duplicate target %q", c.Name, g.PEs[t].Name)
			}
			seenTarget[t] = true
			if prev, claimed := owner[t]; claimed {
				return fmt.Errorf("dataflow: PE %q belongs to choice groups %q and %q",
					g.PEs[t].Name, prev, c.Name)
			}
			owner[t] = c.Name
		}
	}
	return nil
}

// ActiveSuccessors returns the PEs that receive pe's output under the
// routing: plain successors keep and-split duplication; for each choice
// group rooted at pe only the active target is included.
func (g *Graph) ActiveSuccessors(pe int, routing Routing) []int {
	if len(g.Choices) == 0 {
		return g.Successors(pe)
	}
	inactive := map[int]bool{}
	for gi, c := range g.Choices {
		if c.From != pe {
			continue
		}
		for ti, t := range c.Targets {
			if ti != routing[gi] {
				inactive[t] = true
			}
		}
	}
	if len(inactive) == 0 {
		return g.Successors(pe)
	}
	var out []int
	for _, s := range g.Successors(pe) {
		if !inactive[s] {
			out = append(out, s)
		}
	}
	return out
}

// ReachableUnderRouting returns, for every PE, whether it can receive
// messages from some input PE under the routing. PEs on inactive paths are
// unreachable and excluded from the routed application value.
func (g *Graph) ReachableUnderRouting(routing Routing) []bool {
	reach := make([]bool, g.N())
	queue := append([]int(nil), g.Inputs()...)
	for _, i := range queue {
		reach[i] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.ActiveSuccessors(v, routing) {
			if !reach[w] {
				reach[w] = true
				queue = append(queue, w)
			}
		}
	}
	return reach
}

// RoutedValue computes the normalized application value over the PEs that
// are active under the routing — Def. 3 restricted to the live sub-path,
// which is the natural extension of Gamma to dynamic paths.
func RoutedValue(g *Graph, sel Selection, routing Routing) (float64, error) {
	if err := sel.Validate(g); err != nil {
		return 0, err
	}
	if err := routing.Validate(g); err != nil {
		return 0, err
	}
	reach := g.ReachableUnderRouting(routing)
	sum, n := 0.0, 0
	for pe := range g.PEs {
		if reach[pe] {
			sum += sel.Alt(g, pe).Value
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("dataflow: no PE reachable under routing")
	}
	return sum / float64(n), nil
}

// RoutedFlow is a graph's steady-state flow under one selection, routing
// and set of external input rates: the expected rates of Def. 4 and the
// demand Alg. 1 and Alg. 2 size PEs from. Prepare computes the topological
// order, every PE's active successors and the uncapped rates once, so that
// many capacity vectors can be scored against them, and each Capped pass
// reuses the same buffers. Alg. 1's deployment planner keeps one across
// every core it adds, and Alg. 2's heuristic re-prepares one in place
// wherever it reads rates. The zero value is an empty flow ready for
// Prepare.
type RoutedFlow struct {
	order       []int
	succ        [][]int
	selectivity []float64
	outs        []int
	// base holds the external input rates; inRate/outRate the uncapped
	// steady state.
	base, inRate, outRate []float64
	// arr, got and th are the capped pass's buffers.
	arr, got, th []float64
}

// NewRoutedFlow validates the selection, routing and input rates and
// prepares their flow.
func NewRoutedFlow(g *Graph, sel Selection, routing Routing, in InputRates) (*RoutedFlow, error) {
	f := new(RoutedFlow)
	if err := f.Prepare(g, sel, routing, in); err != nil {
		return nil, err
	}
	return f, nil
}

// Prepare validates the selection, routing and input rates and prepares
// their flow in place, reusing the buffers of whatever flow f held before,
// on any graph: once they have grown to the graph's size, preparing a
// choice-free graph's flow allocates nothing. The uncapped rates are one
// FoldRates over the topological order and the active successors. After
// an error f must be prepared again before use.
func (f *RoutedFlow) Prepare(g *Graph, sel Selection, routing Routing, in InputRates) error {
	if err := sel.Validate(g); err != nil {
		return err
	}
	if err := routing.Validate(g); err != nil {
		return err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	n := g.N()
	f.base = resize(f.base, n)
	clear(f.base)
	for pe, r := range in {
		if pe < 0 || pe >= n || len(g.Predecessors(pe)) != 0 || r < 0 {
			return fmt.Errorf("dataflow: bad input rate %v on PE %d", r, pe)
		}
		f.base[pe] = r
	}
	f.order = order
	f.succ = resize(f.succ, n)
	f.selectivity = resize(f.selectivity, n)
	for v := 0; v < n; v++ {
		f.succ[v] = g.ActiveSuccessors(v, routing)
		f.selectivity[v] = sel.Alt(g, v).Selectivity
	}
	f.inRate = resize(f.inRate, n)
	f.outRate = resize(f.outRate, n)
	copy(f.inRate, f.base)
	FoldRates(g, sel, f.order, f.succ, f.inRate, f.outRate)
	f.outs = g.appendOutputs(f.outs[:0])
	f.arr = resize(f.arr, n)
	f.got = resize(f.got, n)
	f.th = resize(f.th, n)
	return nil
}

// resize returns buf with length n, reallocating only when its capacity is
// short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// InRates returns every PE's uncapped arrival rate (msg/s). The slice is
// shared; callers must not mutate it.
func (f *RoutedFlow) InRates() []float64 { return f.inRate }

// Capped runs one capped pass: each PE, in topological order, processes
// min(arrival, capacity) and emits that times its selectivity. It returns
// the predicted relative application throughput — the mean over output
// PEs of capped/uncapped output, where an output expected to emit nothing
// (unreachable under the routing, or no input) counts 1 — and each PE's
// predicted relative throughput, processed/arrival at the capped rates (1
// for PEs with no arrivals). The throughput slice is reused by the next
// pass. A PE beyond len(capacity) is uncapped.
func (f *RoutedFlow) Capped(capacity []float64) (omega float64, th []float64) {
	arr, got := f.arr, f.got
	copy(arr, f.base)
	for _, v := range f.order {
		p := arr[v]
		if v < len(capacity) && p > capacity[v] {
			p = capacity[v]
		}
		got[v] = p * f.selectivity[v]
		for _, w := range f.succ[v] {
			arr[w] += got[v]
		}
	}
	for _, pe := range f.outs {
		if f.outRate[pe] <= 0 {
			omega++
			continue
		}
		r := got[pe] / f.outRate[pe]
		if r > 1 {
			r = 1
		}
		omega += r
	}
	for v := range f.th {
		if arr[v] <= 0 {
			f.th[v] = 1
			continue
		}
		p := arr[v]
		if v < len(capacity) && p > capacity[v] {
			p = capacity[v]
		}
		f.th[v] = p / arr[v]
	}
	return omega / float64(len(f.outs)), f.th
}

// DownstreamCostsRoutedInto computes, for every PE and every alternate,
// the global strategy's cost (Table 1, GetCostOfAlternate) under the
// routing: the alternate's own processing cost plus the
// selectivity-weighted cost of all downstream work a message entering it
// eventually induces. Inactive routes add nothing, because no message
// flows into them. The result is indexed [pe][alternate]. It reuses dst's
// rows (and their backing arrays) and returns them, so a caller that keeps
// the result across calls allocates nothing once the rows have grown to
// the graph's shape.
//
// One pass in reverse topological order fills each PE's row from its
// active successors' selected-alternate entries: a PE's cost under its
// selected alternate is exactly the per-message cost of everything a
// message entering it induces, which is what its predecessors sum. The
// paper describes a reverse BFS rooted at the outputs; the topological
// order gives the same dependencies deterministically.
func DownstreamCostsRoutedInto(g *Graph, sel Selection, routing Routing, dst [][]float64) ([][]float64, error) {
	if err := sel.Validate(g); err != nil {
		return dst, err
	}
	if err := routing.Validate(g); err != nil {
		return dst, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return dst, err
	}
	costs := resize(dst, g.N())
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		down := 0.0
		for _, w := range g.ActiveSuccessors(v, routing) {
			down += costs[w][sel[w]]
		}
		alts := g.PEs[v].Alternates
		row := resize(costs[v], len(alts))
		for j, a := range alts {
			row[j] = a.Cost + a.Selectivity*down
		}
		costs[v] = row
	}
	return costs, nil
}

// RouteCosts returns, for one choice group, the per-message cost of routing
// into each target: the target's downstream cost under its selected
// alternate, its own processing plus everything downstream of it under the
// current selection and routing.
func RouteCosts(g *Graph, sel Selection, routing Routing, group int) ([]float64, error) {
	if group < 0 || group >= len(g.Choices) {
		return nil, fmt.Errorf("dataflow: no choice group %d", group)
	}
	costs, err := DownstreamCostsRoutedInto(g, sel, routing, nil)
	if err != nil {
		return nil, err
	}
	c := g.Choices[group]
	out := make([]float64, len(c.Targets))
	for i, t := range c.Targets {
		out[i] = costs[t][sel[t]]
	}
	return out, nil
}
