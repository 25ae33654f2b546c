package sweep

// TestSpecDocs are this package's test spec documents — the acceptance
// grid, the warm-start grid and its cold control — shared with the
// external test package's differential and fuzz tests.
var TestSpecDocs = []string{acceptSpecDoc, warmSpecDoc(true), warmSpecDoc(false)}

// ExpandCountingMerges is Expand, and also returns how many trees it merged
// after the base's.
func (s *Spec) ExpandCountingMerges() ([]Job, int, error) { return s.expand() }
