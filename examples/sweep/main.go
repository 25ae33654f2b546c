// Sweep campaigns: the same evaluation the paper runs figure by figure,
// expressed as one declarative grid — a base scenario crossed with a
// policy axis and a rate axis, replicated over seeds — and executed on a
// bounded worker pool. Every job is content-addressed by the hash of its
// canonical scenario JSON, and completions are journaled, so the second
// run below finishes instantly from cache: the engine re-executes only
// what is missing, which is also how a killed campaign resumes.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dynamicdf"
)

const base = `{
  "graph": {
    "pes": [
      {"name": "ingest", "alternates": [{"name": "parse", "value": 1, "cost": 0.2, "selectivity": 1}]},
      {"name": "analyze", "alternates": [
        {"name": "full", "value": 1.0, "cost": 1.0, "selectivity": 1},
        {"name": "lite", "value": 0.8, "cost": 0.5, "selectivity": 1}
      ]}
    ],
    "edges": [["ingest", "analyze"]]
  },
  "rate": {"kind": "constant", "mean": 5},
  "horizonHours": 0.5,
  "seed": 1
}`

func patch(doc string) json.RawMessage { return json.RawMessage(doc) }

func main() {
	log.SetFlags(0)
	spec := &dynamicdf.SweepSpec{
		Name: "policy-x-rate",
		Base: patch(base),
		Axes: []dynamicdf.SweepAxis{
			{Name: "policy", Values: []dynamicdf.SweepAxisValue{
				{Label: "local", Patch: patch(`{"policy": {"kind": "local"}}`)},
				{Label: "global", Patch: patch(`{"policy": {"kind": "global"}}`)},
			}},
			{Name: "rate", Values: []dynamicdf.SweepAxisValue{
				{Label: "5", Patch: patch(`{"rate": {"mean": 5}}`)},
				{Label: "20", Patch: patch(`{"rate": {"mean": 20}}`)},
			}},
		},
		Seeds: []int64{1, 2, 3},
	}

	dir, err := os.MkdirTemp("", "sweep-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	run := func() *dynamicdf.SweepReport {
		j, err := dynamicdf.OpenSweepJournal(filepath.Join(dir, "campaign.jsonl"))
		if err != nil {
			log.Fatal(err)
		}
		defer j.Close()
		jobs, err := spec.Expand()
		if err != nil {
			log.Fatal(err)
		}
		eng := &dynamicdf.SweepEngine{Workers: 4}
		rep, err := eng.RunCampaign(context.Background(), spec, jobs, dynamicdf.SweepRunOpts{Journal: j})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	first := run()
	fmt.Println(first.Table())

	// Same spec, fresh engine: every job is already on the journal, so the
	// hit rate is 100% and nothing re-executes.
	second := run()
	fmt.Printf("re-run: %d cached, %d executed (hit rate %.0f%%)\n",
		second.CacheHits, second.Executed, 100*second.HitRate())
}
