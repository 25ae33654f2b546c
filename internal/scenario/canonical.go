package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dynamicdf/internal/dataflow"
)

// CanonicalJSON serializes the scenario in its canonical form: compact,
// struct-field order fixed by the schema, map keys sorted by encoding/json.
// Two scenarios that build identical engines marshal to identical bytes, so
// the output is a stable cache identity (see sweep.JobKey).
func (sc *Scenario) CanonicalJSON() ([]byte, error) {
	b, err := json.Marshal(sc)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalize: %w", err)
	}
	return b, nil
}

// ParseBytes is Parse over an in-memory document.
func ParseBytes(data []byte) (*Scenario, error) {
	return Parse(bytes.NewReader(data))
}

// ExpectEOF returns nil when nothing but white space follows the JSON value
// dec has just decoded, and otherwise an error that names what follows it:
// its first token, or the syntax error it starts with. A json.Decoder stops
// after one value, so a strict parser calls this to refuse a document with
// a second value or junk after the first.
func ExpectEOF(dec *json.Decoder) error {
	off := dec.InputOffset()
	tok, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("trailing data after offset %d: %w", off, err)
	}
	text := fmt.Sprint(tok)
	switch t := tok.(type) {
	case nil:
		text = "null"
	case json.Delim:
		text = fmt.Sprintf("%q", rune(t))
	case string:
		text = fmt.Sprintf("%q", t)
	}
	return fmt.Errorf("trailing data after offset %d: %s", off, text)
}

// FromGraph converts a built dataflow graph back into its scenario spec
// form, so programmatic graphs (dataflow.EvalGraph, LayeredGraph) can be
// embedded in scenario and sweep documents.
func FromGraph(g *dataflow.Graph) (GraphSpec, []ChoiceSpec) {
	gs := GraphSpec{DefaultMsgBytes: g.DefaultMsgBytes}
	for _, pe := range g.PEs {
		ps := PESpec{Name: pe.Name, MsgBytes: pe.OutMsgBytes}
		for _, a := range pe.Alternates {
			ps.Alternates = append(ps.Alternates, AltSpec{
				Name: a.Name, Value: a.Value, Cost: a.Cost, Selectivity: a.Selectivity,
			})
		}
		gs.PEs = append(gs.PEs, ps)
	}
	for _, e := range g.Edges {
		gs.Edges = append(gs.Edges, [2]string{g.PEs[e.From].Name, g.PEs[e.To].Name})
	}
	var choices []ChoiceSpec
	for _, ch := range g.Choices {
		cs := ChoiceSpec{Name: ch.Name, From: g.PEs[ch.From].Name}
		for _, t := range ch.Targets {
			cs.Targets = append(cs.Targets, g.PEs[t].Name)
		}
		choices = append(choices, cs)
	}
	return gs, choices
}
