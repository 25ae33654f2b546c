package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		for _, sz := range []size{w.toy, w.full} {
			a, err := w.gen(7, sz)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			b, _ := w.gen(7, sz)
			c, _ := w.gen(8, sz)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: seed 7 generated two different documents", w.name)
			}
			if bytes.Equal(a, c) {
				t.Errorf("%s: seeds 7 and 8 generated the same document", w.name)
			}
		}
	}
}

// TestReplicasDrawOwnSeeds checks that no two replicas of a campaign cell,
// and no two tenants, share a rate, infra, control or session seed: replicas
// with shared seeds would be the same run counted twice.
func TestReplicasDrawOwnSeeds(t *testing.T) {
	for _, name := range []string{"paper-grid", "faults-fabric-warm"} {
		w, _ := lookup(name)
		doc, err := w.gen(3, w.full)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sweep.ParseSpec(doc)
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]map[int64]bool{}
		for _, j := range jobs {
			cell := replicaFree(j.ID)
			sc := j.Scenario
			for kind, s := range map[string]int64{"rate": sc.Rate.Seed, "infra": sc.Infra.Seed, "control": sc.Control.Seed} {
				if kind == "control" && name == "paper-grid" {
					continue
				}
				key := cell + " " + kind
				if seen[key] == nil {
					seen[key] = map[int64]bool{}
				}
				if s == 0 || seen[key][s] {
					t.Errorf("%s job %s: %s seed %d is zero or repeats within its cell", name, j.ID, kind, s)
				}
				seen[key][s] = true
			}
		}
	}

	w, _ := lookup("tenants-scarce")
	doc, err := w.gen(3, w.full)
	if err != nil {
		t.Fatal(err)
	}
	var sc scenario.Scenario
	if err := json.Unmarshal(doc, &sc); err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{sc.Seed: true, sc.Infra.Seed: true}
	for _, tn := range sc.Tenants {
		for _, s := range []int64{tn.Rate.Seed, tn.Rate.Sessions.Seed} {
			if s == 0 || seeds[s] {
				t.Errorf("tenant %s: seed %d is zero or shared", tn.Name, s)
			}
			seeds[s] = true
		}
	}
}

// replicaFree drops the replica coordinate from a job id.
func replicaFree(id string) string {
	var keep []string
	for _, part := range strings.Split(id, "/") {
		if !strings.HasPrefix(part, "replica=") {
			keep = append(keep, part)
		}
	}
	return strings.Join(keep, "/")
}
