package core

import (
	"encoding/json"
	"fmt"

	"dynamicdf/internal/sim"
)

// heuristicState is the Heuristic's mutable state: just the adaptation tick
// counter, which phases the alternate stage's period. Options are
// configuration, re-supplied at construction, not state.
type heuristicState struct {
	Ticks int `json:"ticks"`
}

// CheckpointState implements sim.StatefulScheduler.
func (h *Heuristic) CheckpointState() ([]byte, error) {
	return json.Marshal(heuristicState{Ticks: h.ticks})
}

// RestoreState implements sim.StatefulScheduler.
func (h *Heuristic) RestoreState(blob []byte) error {
	var st heuristicState
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("core: restore heuristic state: %w", err)
	}
	if st.Ticks < 0 {
		return fmt.Errorf("core: restore heuristic state: negative ticks %d", st.Ticks)
	}
	h.ticks = st.Ticks
	return nil
}

var _ sim.StatefulScheduler = (*Heuristic)(nil)
