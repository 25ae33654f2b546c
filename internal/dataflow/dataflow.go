// Package dataflow implements the dynamic dataflow application model from
// Kumbhare et al., "Exploiting Application Dynamism and Cloud Elasticity for
// Continuous Dataflows" (SC'13), Section 3.
//
// A continuous dataflow is a directed acyclic graph of long-running
// Processing Elements (PEs). A dynamic dataflow extends every PE with one or
// more alternate implementations that trade application value against
// processing cost. Edges follow and-split semantics on output ports (an
// output message is duplicated onto every outgoing edge) and multi-merge
// semantics on input ports (messages from all incoming edges interleave).
package dataflow

import (
	"errors"
	"fmt"
	"strings"
)

// Alternate is one implementation choice for a PE (Def. 2). Its metrics are
// the triple the paper attaches to every alternate p_i^j.
type Alternate struct {
	// Name identifies the alternate within its PE (unique per PE).
	Name string
	// Value is the relative value gamma in (0, 1]: the user-defined benefit
	// of this alternate normalized by the best alternate of the PE.
	Value float64
	// Cost is the processing cost c in core-seconds per message on a
	// "standard" CPU core (normalized speed pi = 1).
	Cost float64
	// Selectivity is the ratio s of output messages produced to input
	// messages consumed for one logical unit of work.
	Selectivity float64
}

// Validate reports whether the alternate's metrics are in their legal ranges.
func (a Alternate) Validate() error {
	if a.Name == "" {
		return errors.New("dataflow: alternate has empty name")
	}
	if !(a.Value > 0 && a.Value <= 1) {
		return fmt.Errorf("dataflow: alternate %q: value %v outside (0,1]", a.Name, a.Value)
	}
	if a.Cost <= 0 {
		return fmt.Errorf("dataflow: alternate %q: cost %v must be > 0", a.Name, a.Cost)
	}
	if a.Selectivity <= 0 {
		return fmt.Errorf("dataflow: alternate %q: selectivity %v must be > 0", a.Name, a.Selectivity)
	}
	return nil
}

// PE is a processing element: a continuously executing user task with at
// least one alternate implementation.
type PE struct {
	// Name identifies the PE within the graph (unique).
	Name string
	// Alternates holds the implementation choices; index 0 is the default.
	Alternates []Alternate
	// OutMsgBytes is the size of messages this PE emits, used to model
	// network transfer between VMs. Zero means the graph default applies.
	OutMsgBytes int
}

// BestValue returns the maximum value across the PE's alternates.
func (p *PE) BestValue() float64 {
	best := 0.0
	for _, a := range p.Alternates {
		if a.Value > best {
			best = a.Value
		}
	}
	return best
}

// WorstValue returns the minimum value across the PE's alternates.
func (p *PE) WorstValue() float64 {
	if len(p.Alternates) == 0 {
		return 0
	}
	worst := p.Alternates[0].Value
	for _, a := range p.Alternates[1:] {
		if a.Value < worst {
			worst = a.Value
		}
	}
	return worst
}

// AlternateIndex returns the index of the alternate with the given name, or
// -1 when absent.
func (p *PE) AlternateIndex(name string) int {
	for i, a := range p.Alternates {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Edge is a directed dataflow edge: messages flow From -> To. Endpoints are
// PE indices into Graph.PEs.
type Edge struct {
	From, To int
}

// Graph is a dynamic dataflow: a DAG of PEs with alternates (Defs. 1 and 2).
// Build one with NewBuilder or construct the fields directly and call
// Validate. Indices into PEs are the canonical PE identifiers used across
// this module.
type Graph struct {
	PEs   []*PE
	Edges []Edge

	// Choices declares choice-semantics output ports for dynamic paths
	// (see ChoiceGroup). Empty for plain and-split dataflows.
	Choices []ChoiceGroup

	// DefaultMsgBytes is the message size assumed for PEs that do not set
	// OutMsgBytes. The paper's experiments use ~100 KB messages.
	DefaultMsgBytes int

	succ [][]int
	pred [][]int
	// topo is the topological order Validate computed; nil until a
	// Validate gets past the cycle check.
	topo []int
}

// DefaultMessageBytes is the paper's evaluation message size (~100 KB/msg).
const DefaultMessageBytes = 100 * 1024

// NewGraph constructs a validated graph from PEs and edges.
func NewGraph(pes []*PE, edges []Edge) (*Graph, error) {
	g := &Graph{PEs: pes, Edges: edges, DefaultMsgBytes: DefaultMessageBytes}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Validate checks structural invariants: non-empty, unique names, legal
// alternates, edge endpoints in range, acyclicity, and non-empty input and
// output PE sets (Def. 1 requires I != {} and O != {}). It also (re)builds
// the adjacency caches and the topological order, so it must be called
// after any structural mutation.
func (g *Graph) Validate() error {
	g.topo = nil
	if len(g.PEs) == 0 {
		return errors.New("dataflow: graph has no PEs")
	}
	if g.DefaultMsgBytes <= 0 {
		g.DefaultMsgBytes = DefaultMessageBytes
	}
	seen := make(map[string]bool, len(g.PEs))
	for i, p := range g.PEs {
		if p == nil {
			return fmt.Errorf("dataflow: PE %d is nil", i)
		}
		if p.Name == "" {
			return fmt.Errorf("dataflow: PE %d has empty name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("dataflow: duplicate PE name %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Alternates) == 0 {
			return fmt.Errorf("dataflow: PE %q has no alternates (needs >= 1)", p.Name)
		}
		altSeen := make(map[string]bool, len(p.Alternates))
		for _, a := range p.Alternates {
			if err := a.Validate(); err != nil {
				return fmt.Errorf("dataflow: PE %q: %w", p.Name, err)
			}
			if altSeen[a.Name] {
				return fmt.Errorf("dataflow: PE %q: duplicate alternate %q", p.Name, a.Name)
			}
			altSeen[a.Name] = true
		}
		if p.OutMsgBytes < 0 {
			return fmt.Errorf("dataflow: PE %q: negative OutMsgBytes", p.Name)
		}
	}
	g.succ = make([][]int, len(g.PEs))
	g.pred = make([][]int, len(g.PEs))
	edgeSeen := make(map[Edge]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.PEs) || e.To < 0 || e.To >= len(g.PEs) {
			return fmt.Errorf("dataflow: edge %d->%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("dataflow: self loop on PE %q", g.PEs[e.From].Name)
		}
		if edgeSeen[e] {
			return fmt.Errorf("dataflow: duplicate edge %q->%q", g.PEs[e.From].Name, g.PEs[e.To].Name)
		}
		edgeSeen[e] = true
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
	}
	order, err := g.kahn()
	if err != nil {
		return err
	}
	g.topo = order
	if len(g.Inputs()) == 0 {
		return errors.New("dataflow: graph has no input PEs")
	}
	if len(g.Outputs()) == 0 {
		return errors.New("dataflow: graph has no output PEs")
	}
	return g.validateChoices()
}

// N returns the number of PEs.
func (g *Graph) N() int { return len(g.PEs) }

// Successors returns the indices of PEs receiving messages from pe.
// The returned slice is shared; callers must not mutate it.
func (g *Graph) Successors(pe int) []int { return g.succ[pe] }

// Predecessors returns the indices of PEs feeding messages into pe.
// The returned slice is shared; callers must not mutate it.
func (g *Graph) Predecessors(pe int) []int { return g.pred[pe] }

// Inputs returns the indices of input PEs (no incoming edges): the set I
// where external messages enter the dataflow.
func (g *Graph) Inputs() []int {
	var in []int
	for i := range g.PEs {
		if len(g.pred[i]) == 0 {
			in = append(in, i)
		}
	}
	return in
}

// Outputs returns the indices of output PEs (no outgoing edges): the set O
// whose messages are consumed externally.
func (g *Graph) Outputs() []int { return g.appendOutputs(nil) }

// appendOutputs appends the output PEs to dst, in index order.
func (g *Graph) appendOutputs(dst []int) []int {
	for i := range g.PEs {
		if len(g.succ[i]) == 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// MsgBytes returns the output message size for a PE, falling back to the
// graph default.
func (g *Graph) MsgBytes(pe int) int {
	if b := g.PEs[pe].OutMsgBytes; b > 0 {
		return b
	}
	return g.DefaultMsgBytes
}

// TopoOrder returns a topological ordering of the PE indices by Kahn's
// algorithm: the one Validate computed. The returned slice is shared;
// callers must not mutate it. On a graph Validate has not accepted, it
// runs the algorithm afresh and returns an error naming one PE on a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	if g.topo != nil {
		return g.topo, nil
	}
	return g.kahn()
}

// kahn runs Kahn's algorithm over the adjacency caches.
func (g *Graph) kahn() ([]int, error) {
	indeg := make([]int, len(g.PEs))
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	queue := make([]int, 0, len(g.PEs))
	for i := range g.PEs {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, len(g.PEs))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != len(g.PEs) {
		for i, d := range indeg {
			if d > 0 {
				return nil, fmt.Errorf("dataflow: cycle detected involving PE %q", g.PEs[i].Name)
			}
		}
		return nil, errors.New("dataflow: cycle detected")
	}
	return order, nil
}

// ForwardBFS returns PE indices in breadth-first order rooted at the input
// PEs. Alg. 1 uses this order for initial resource allocation so that
// neighbouring PEs tend to be collocated.
func (g *Graph) ForwardBFS() []int {
	roots := g.Inputs()
	visited := make([]bool, len(g.PEs))
	order := make([]int, 0, len(g.PEs))
	queue := append([]int(nil), roots...)
	for _, r := range roots {
		visited[r] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.succ[v] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// String renders a compact description of the graph for logs.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow(%d PEs, %d edges; ", len(g.PEs), len(g.Edges))
	for i, p := range g.PEs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s[%d]", p.Name, len(p.Alternates))
	}
	b.WriteString(")")
	return b.String()
}
