package main

import (
	"bytes"
	"testing"

	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
)

// TestWrapperIsTransparent runs scale-adapt and tenants-scarce at a 1 h
// horizon three ways: the scheduler unwrapped, under the Deploy/Adapt
// timer, and under the timer stepped by the traced run's probe with a
// checkpoint and restore halfway. All three must write byte-identical
// metrics CSV and audit logs. Auditing makes the policies emit decision
// provenance, which they only do through an unwrapped sim.DecisionSink.
func TestWrapperIsTransparent(t *testing.T) {
	for _, name := range []string{"scale-adapt", "tenants-scarce"} {
		w, _ := lookup(name)
		sz := w.full
		sz.hours = 1
		doc, err := w.gen(1, sz)
		if err != nil {
			t.Fatal(err)
		}
		run := func(wrap bool, p *probe) (csv, audit []byte) {
			sc, err := scenario.ParseBytes(doc)
			if err != nil {
				t.Fatal(err)
			}
			sc.Audit = true
			var eng *sim.Engine
			if wrap {
				st, err := runOne(sc, p, p.eventTracer(), 0)
				if err != nil {
					t.Fatal(err)
				}
				eng = st.eng
			} else {
				built, err := sc.Build()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := built.Engine.Run(built.Scheduler); err != nil {
					t.Fatal(err)
				}
				eng = built.Engine
			}
			var c, a bytes.Buffer
			if err := eng.Collector().WriteCSV(&c); err != nil {
				t.Fatal(err)
			}
			if err := eng.WriteAuditJSONL(&a); err != nil {
				t.Fatal(err)
			}
			return c.Bytes(), a.Bytes()
		}
		csv, audit := run(false, nil)
		if !bytes.Contains(audit, []byte(`"decision"`)) {
			t.Fatalf("%s: the unwrapped audit log has no decisions to compare", name)
		}
		for _, v := range []struct {
			label string
			p     *probe
		}{{"timed", nil}, {"timed and stepped", newProbe()}} {
			c, a := run(true, v.p)
			if !bytes.Equal(c, csv) {
				t.Errorf("%s: %s run wrote a different metrics CSV", name, v.label)
			}
			if !bytes.Equal(a, audit) {
				t.Errorf("%s: %s run wrote a different audit log", name, v.label)
			}
		}
	}
}
