package dataflow

import "fmt"

// Selection maps each PE index to the index of its active alternate. During
// any interval exactly one alternate per PE is active (Eq. for A_i^j in §3).
type Selection []int

// DefaultSelection returns the selection that activates alternate 0 of every
// PE.
func DefaultSelection(g *Graph) Selection {
	return make(Selection, g.N())
}

// Validate checks the selection indexes a real alternate of every PE.
func (s Selection) Validate(g *Graph) error {
	if len(s) != g.N() {
		return fmt.Errorf("dataflow: selection covers %d PEs, graph has %d", len(s), g.N())
	}
	for i, j := range s {
		if j < 0 || j >= len(g.PEs[i].Alternates) {
			return fmt.Errorf("dataflow: selection for PE %q: alternate %d out of range", g.PEs[i].Name, j)
		}
	}
	return nil
}

// Clone returns an independent copy of the selection.
func (s Selection) Clone() Selection {
	return append(Selection(nil), s...)
}

// Alt returns the active alternate of PE i under the selection.
func (s Selection) Alt(g *Graph, i int) Alternate {
	return g.PEs[i].Alternates[s[i]]
}

// InputRates gives the external message rate (msg/s) at each input PE,
// keyed by PE index. Non-input PEs must not appear.
type InputRates map[int]float64

// FoldRates is the steady-state rate propagation (§3). In the given
// topological order, each PE v emits inRate[v] times its active
// alternate's selectivity into outRate[v], and that output is added to
// the arrival rate of every PE in succ[v]: and-split duplication onto the
// active successors, multi-merge summing at a join. On entry inRate holds
// the external input rates and zero elsewhere; on return it holds every
// PE's uncapped arrival rate. The caller validates sel and supplies
// succ[v] as v's active successors under its routing.
func FoldRates(g *Graph, sel Selection, order []int, succ [][]int, inRate, outRate []float64) {
	for _, v := range order {
		outRate[v] = inRate[v] * sel.Alt(g, v).Selectivity
		for _, w := range succ[v] {
			inRate[w] += outRate[v]
		}
	}
}

// MaxValue returns the normalized application value when every PE runs its
// best-value alternate (used to derive sigma, §6).
func MaxValue(g *Graph) float64 {
	sum := 0.0
	for _, p := range g.PEs {
		sum += p.BestValue()
	}
	return sum / float64(g.N())
}

// MinValue returns the normalized application value when every PE runs its
// worst-value alternate.
func MinValue(g *Graph) float64 {
	sum := 0.0
	for _, p := range g.PEs {
		sum += p.WorstValue()
	}
	return sum / float64(g.N())
}
