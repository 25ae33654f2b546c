// Command dfsim runs one dynamic-dataflow simulation scenario described by
// a JSON file (see internal/scenario for the schema) and prints the period
// summary, optionally writing the per-interval metric series as CSV and
// the scheduler action log as JSON lines.
//
// Usage:
//
//	dfsim -config scenario.json [-csv metrics.csv] [-audit actions.jsonl] [-trace events.ndjson] [-check] [-profile]
//	dfsim -config scenario.json -checkpoint snap.json -checkpoint-sec 1800
//	dfsim -config scenario.json -restore snap.json
//	dfsim -example > scenario.json
//
// -trace streams the run's structured event log (schema obs/v1) as NDJSON:
// run/step spans, every scheduler action, VM lifecycle transitions, and QoS
// violations, all stamped with simulation time. Inspect the stream with
// dftrace; for a fixed scenario and seed the bytes are deterministic.
//
// -check runs the scenario with the invariant checker in strict mode
// (overriding the scenario's own check block): the run aborts at the first
// violated conservation law, naming the law and sim-second.
//
// -checkpoint pauses the run at -checkpoint-sec simulated seconds, writes
// the engine's canonical snapshot (schema state/v1, digest-protected JSON)
// to the given path, and continues to the horizon. -restore starts from
// such a snapshot instead of from zero: the resumed run — metrics, audit,
// trace events, summary — is byte-identical to the uninterrupted one from
// the restore point on. The scenario file must describe the same world the
// snapshot was taken from (same graph size, interval, and seed).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"dynamicdf/internal/invariant"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/resilient"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
)

const exampleScenario = `{
  "graph": {
    "pes": [
      {"name": "ingest", "alternates": [{"name": "only", "value": 1, "cost": 0.25, "selectivity": 1}]},
      {"name": "analyze", "alternates": [
        {"name": "deep", "value": 1.0, "cost": 1.4, "selectivity": 1},
        {"name": "fast", "value": 0.8, "cost": 0.9, "selectivity": 1}
      ]},
      {"name": "sink", "alternates": [{"name": "only", "value": 1, "cost": 0.35, "selectivity": 1}]}
    ],
    "edges": [["ingest", "analyze"], ["analyze", "sink"]]
  },
  "rate": {"kind": "wave", "mean": 10, "amplitude": 4, "periodSec": 1800},
  "infra": {"kind": "replayed", "seed": 42},
  "policy": {"kind": "global", "dynamic": true, "resilient": false},
  "control": {
    "meanBootSec": 0,
    "acquireFailProb": 0,
    "burstEverySec": 0,
    "faultFreeSec": 0,
    "monitorStaleProb": 0,
    "monitorNoiseFrac": 0
  },
  "horizonHours": 4,
  "omegaHat": 0.7,
  "epsilon": 0.05
}`

func main() {
	log.SetFlags(0)
	log.SetPrefix("dfsim: ")
	configPath := flag.String("config", "", "path to a scenario JSON file")
	csvPath := flag.String("csv", "", "write per-interval metrics CSV here")
	auditPath := flag.String("audit", "", "write the scheduler action log (JSON lines) here")
	tracePath := flag.String("trace", "", "write the structured event stream (NDJSON, schema obs/v1) here")
	resilientFlag := flag.Bool("resilient", false, "wrap the policy in the resilient control-plane middleware")
	degradeOmega := flag.Float64("degrade-omega", 0, "arm the middleware's degradation hook below this Omega (with -resilient)")
	check := flag.Bool("check", false, "verify the run against the invariant catalog (strict: abort on the first violated law)")
	profileFlag := flag.Bool("profile", false, "profile the engine's per-stage step cost and print the breakdown after the run")
	checkpointPath := flag.String("checkpoint", "", "write a state/v1 snapshot here at -checkpoint-sec, then continue")
	checkpointSec := flag.Int64("checkpoint-sec", 0, "simulated second to checkpoint at (an interval boundary; with -checkpoint)")
	restorePath := flag.String("restore", "", "resume from a state/v1 snapshot instead of starting at t=0")
	example := flag.Bool("example", false, "print an example scenario and exit")
	flag.Parse()

	if *example {
		fmt.Println(exampleScenario)
		return
	}
	if *configPath == "" {
		log.Fatal("need -config (or -example for a template)")
	}
	f, err := os.Open(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := scenario.Parse(f)
	_ = f.Close()
	if err != nil {
		log.Fatalf("parse %s: %v", *configPath, err)
	}
	sc.Audit = sc.Audit || *auditPath != ""
	sc.Policy.Resilient = sc.Policy.Resilient || *resilientFlag
	if *degradeOmega > 0 {
		sc.Policy.DegradeOmega = *degradeOmega
	}
	if *check {
		sc.Check = &scenario.CheckSpec{Enabled: true, Strict: true}
	}

	// One engine: restored from the snapshot, or fresh at t=0.
	built, err := sc.Lower(nil)
	if err != nil {
		log.Fatal(err)
	}
	if *restorePath != "" {
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			log.Fatal(err)
		}
		snap, err := state.Decode(data)
		if err != nil {
			log.Fatal(err)
		}
		if built.Engine, err = sim.Restore(snap, built.Config); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restored: %s (t=%ds)\n", *restorePath, snap.ClockSec)
	} else if built.Engine, err = sim.NewEngine(built.Config); err != nil {
		log.Fatal(err)
	}
	var prof *obs.StageProfiler
	if *profileFlag {
		prof = obs.NewStageProfiler(nil)
		built.Engine.SetProfiler(prof)
	}
	var (
		tracer   *obs.Tracer
		traceOut *os.File
	)
	if *tracePath != "" {
		if traceOut, err = os.Create(*tracePath); err != nil {
			log.Fatal(err)
		}
		tracer = obs.NewTracer(traceOut)
		built.Engine.SetTracer(tracer)
	}
	if *checkpointPath != "" {
		if *checkpointSec <= 0 {
			log.Fatal("-checkpoint needs a positive -checkpoint-sec")
		}
		if err := built.Engine.RunUntil(context.Background(), built.Scheduler, *checkpointSec); err != nil {
			log.Fatal(err)
		}
		snap, err := built.Engine.Checkpoint()
		if err != nil {
			log.Fatal(err)
		}
		blob, err := state.Encode(snap)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*checkpointPath, blob, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("checkpoint: %s (t=%ds, %d bytes, digest %.12s)\n",
			*checkpointPath, snap.ClockSec, len(blob), snap.Digest)
	}
	sum, err := built.Engine.Run(built.Scheduler)
	if err != nil {
		if v, ok := invariant.As(err); ok {
			log.Fatalf("%v\n  snapshot: omega=%.4f gamma=%.4f cost=$%.2f backlog=%.0f vms=%d",
				v, v.Snapshot.Omega, v.Snapshot.Gamma, v.Snapshot.CostUSD,
				v.Snapshot.Backlog, v.Snapshot.VMs)
		}
		log.Fatal(err)
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := traceOut.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("event trace: %s (%d events)\n", *tracePath, tracer.Count())
	}

	obj := built.Objective
	met := "MET"
	if !obj.MeetsConstraint(sum.MeanOmega) {
		met = "MISSED"
	}
	fmt.Printf("policy=%s %s\n", built.Scheduler.Name(), sum)
	fmt.Printf("constraint omega>=%.2f (eps %.2f): %s; theta=%.4f (sigma=%.5f)\n",
		obj.OmegaHat, obj.Epsilon, met, obj.Theta(sum.MeanGamma, sum.TotalCostUSD), obj.Sigma)
	if obj.LatencyHatSec > 0 {
		latMet := "MET"
		if !obj.MeetsLatency(sum.MeanLatencySec) {
			latMet = "MISSED"
		}
		fmt.Printf("latency bound %.0fs: %s (mean %.1fs)\n", obj.LatencyHatSec, latMet, sum.MeanLatencySec)
	}
	for i, ts := range sum.Tenants {
		to := obj
		if i < len(built.TenantObjectives) {
			to = built.TenantObjectives[i]
		}
		tenMet := "MET"
		if !to.MeetsConstraint(ts.MeanOmega) {
			tenMet = "MISSED"
		}
		floor := built.Config.Tenants[i].OmegaFloor
		fmt.Printf("tenant %-16s omega=%.3f [min %.3f] floor %.2f: %s; gamma=%.3f spend=$%.2f theta=%+.4f\n",
			ts.Name, ts.MeanOmega, ts.MinOmega, floor, tenMet,
			ts.MeanGamma, ts.SpendUSD, to.Theta(ts.MeanGamma, ts.SpendUSD))
	}
	if built.Engine.Crashes() > 0 {
		fmt.Printf("crashes: %d (%d preemptions), lost messages: %.0f\n",
			built.Engine.Crashes(), built.Engine.Preemptions(), built.Engine.LostMessages())
	}
	if built.Engine.AcquireFailures() > 0 || built.Engine.StaleProbes() > 0 {
		fmt.Printf("control plane: %d failed acquisitions, %d stale probes\n",
			built.Engine.AcquireFailures(), built.Engine.StaleProbes())
	}
	if built.Checker != nil {
		fmt.Printf("invariants: %d laws over %d intervals, %d violations\n",
			len(invariant.DefaultLaws()), sum.Intervals, built.Checker.Count())
	}
	if rs, ok := built.Scheduler.(*resilient.Scheduler); ok {
		fmt.Printf("resilience: %d retries, %d fallbacks, %d breaker trips, %d degrade rounds\n",
			rs.Retries(), rs.Fallbacks(), rs.BreakerTrips(), rs.Degrades())
	}

	if prof != nil {
		fmt.Print(prof.Report())
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, built.Engine.Collector().WriteCSV); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("per-interval metrics: %s (%d rows)\n", *csvPath, built.Engine.Collector().Len())
	}
	if *auditPath != "" {
		if err := writeFile(*auditPath, built.Engine.WriteAuditJSONL); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("action log: %s (%d entries)\n", *auditPath, len(built.Engine.AuditLog()))
	}
}

// writeFile creates path, writes it with write and closes it, returning the
// first error, Close's included: a write the OS defers can fail only there.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
