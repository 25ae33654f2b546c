// Multi-tenant fleets: three dataflows — a high-priority alerting pipeline,
// an analytics pipeline, and a session-driven user-facing app — share one
// elastic VM fleet. Each tenant gets its own adaptive heuristic and Ω floor;
// a fairness arbiter decides who may still scale up once the fleet runs
// scarce. The whole setup is declared as a scenario JSON tenants block, the
// same schema cmd/dfsim and sweeps consume.
package main

import (
	"fmt"
	"log"
	"strings"

	"dynamicdf"
)

const scenarioJSON = `{
  "tenants": [
    {
      "name": "alerts",
      "priority": 2,
      "omegaFloor": 0.9,
      "graph": {
        "pes": [
          {"name": "ingest", "alternates": [{"name": "e", "value": 1, "cost": 0.2, "selectivity": 1}]},
          {"name": "match", "alternates": [
            {"name": "exact", "value": 1.0, "cost": 0.8, "selectivity": 1},
            {"name": "bloom", "value": 0.85, "cost": 0.4, "selectivity": 1}
          ]}
        ],
        "edges": [["ingest", "match"]]
      },
      "rate": {"kind": "constant", "mean": 4}
    },
    {
      "name": "analytics",
      "graph": {
        "pes": [
          {"name": "ingest", "alternates": [{"name": "e", "value": 1, "cost": 0.2, "selectivity": 1}]},
          {"name": "aggregate", "alternates": [
            {"name": "full", "value": 1.0, "cost": 1.0, "selectivity": 1},
            {"name": "sampled", "value": 0.8, "cost": 0.5, "selectivity": 1}
          ]}
        ],
        "edges": [["ingest", "aggregate"]]
      },
      "rate": {"kind": "wave", "mean": 6, "amplitude": 2, "periodSec": 1800}
    },
    {
      "name": "app",
      "omegaFloor": 0.7,
      "graph": {
        "pes": [
          {"name": "sessions", "alternates": [{"name": "e", "value": 1, "cost": 0.2, "selectivity": 1}]},
          {"name": "render", "alternates": [
            {"name": "rich", "value": 1.0, "cost": 0.7, "selectivity": 1},
            {"name": "plain", "value": 0.75, "cost": 0.35, "selectivity": 1}
          ]}
        ],
        "edges": [["sessions", "render"]]
      },
      "rate": {
        "kind": "sessions",
        "seed": 7,
        "sessions": {
          "model": "open",
          "arrivalPerSec": 0.03,
          "meanSessionSec": 600,
          "msgPerSessionSec": 0.3,
          "diurnal": 0.4,
          "flashProb": 0.0002,
          "flashFactor": 4,
          "flashSec": 900
        }
      }
    }
  ],
  "horizonHours": 2,
  "maxVMs": 9,
  "seed": 1,
  "audit": true
}`

func main() {
	log.SetFlags(0)

	sc, err := dynamicdf.ParseScenario(strings.NewReader(scenarioJSON))
	if err != nil {
		log.Fatal(err)
	}
	built, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composite dataflow: %d PEs across %d tenants, policy %s\n",
		built.Config.Graph.N(), len(built.Config.Tenants), built.Scheduler.Name())

	sum, err := built.Engine.Run(built.Scheduler)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %s\n", sum)
	for i, ts := range sum.Tenants {
		obj := built.TenantObjectives[i]
		verdict := "met"
		if !obj.MeetsConstraint(ts.MeanOmega) {
			verdict = "MISSED"
		}
		fmt.Printf("tenant %-10s omega=%.3f (min %.3f, floor %.2f %s)  gamma=%.3f  spend=$%.2f\n",
			ts.Name, ts.MeanOmega, ts.MinOmega, built.Config.Tenants[i].OmegaFloor,
			verdict, ts.MeanGamma, ts.SpendUSD)
	}

	// Every fair-share ruling the arbiter took is on the audit log, so a
	// denied scale-up is always explainable.
	rulings := 0
	for _, entry := range built.Engine.AuditLog() {
		if entry.Decision != nil && entry.Decision.Kind == "fair-share" {
			rulings++
		}
	}
	fmt.Printf("fair-share rulings under scarcity: %d\n", rulings)
}
