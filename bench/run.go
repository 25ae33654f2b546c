package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/sweep"
	"dynamicdf/internal/trace"
)

// batch is what one batch of a workload reports: its set-up and timed
// walls, the simulated hours it delivered, a digest of its outputs, its
// outcome, and every failed correctness check.
type batch struct {
	setup, wall time.Duration
	simHours    float64
	attempted   int
	failed      int
	digest      string
	quality     quality
	problems    []string
	// serialMs is, on traced pool batches, the summed wall of every job run
	// alone.
	serialMs float64
	// adapts are the wall times in ms of a single-run batch's Adapt calls.
	adapts []float64
	// allocMB and peakMB are, on untraced batches, the MB the Go heap
	// allocated during the batch and the process's resident-set peak.
	allocMB, peakMB float64
}

func (b *batch) problem(format string, args ...interface{}) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// quality is a batch's outcome in the paper's terms: Θ, Ω̄ and the shortfall
// of Ω̄ below its constraint, averaged over the batch's jobs or tenants.
type quality struct {
	theta, omega, shortfall float64
}

// runStats is one scenario run by runOne.
type runStats struct {
	eng         *sim.Engine // the engine that finished the run
	res         sweep.Result
	quality     quality
	omegaHat    float64
	setup, wall time.Duration
	adapts      []float64 // ms
}

// runOne builds sc and runs it to its horizon under the Deploy/Adapt timer;
// setup covers Build and Deploy. With a probe it steps one interval per
// RunUntil call under the profiler and tr, samples the fleet between
// intervals, and finishes from a checkpoint restored halfway. None of that
// changes the run's outcome, which the traced run's digest checks. The
// returned result holds the fields a sweep job reports that the re-run
// checks compare: Θ, Ω̄, cost and invariant violations.
func runOne(sc *scenario.Scenario, p *probe, tr *obs.Tracer, parent int) (runStats, error) {
	var st runStats
	ctx := context.Background()
	start := time.Now()
	bid := p.begin(parent, "scenario.build")
	built, err := sc.Build()
	p.end(bid)
	if err != nil {
		return st, err
	}
	build := time.Since(start)
	sched, timer := timeScheduler(built.Scheduler)
	eng := built.Engine
	p.attach(eng, tr)
	timer.spans, timer.parent = p.spanLog(), parent
	did := p.begin(parent, "core.deploy")
	err = eng.RunUntil(ctx, sched, 0)
	p.end(did)
	if err != nil {
		return st, err
	}
	st.setup = time.Since(start)

	runStart := time.Now()
	if p != nil {
		p.add("scenario.build_ms", ms(build))
		p.add("core.deploy_ms", ms(timer.deploy))
		if eng, err = p.step(eng, built.Config, sched, timer, tr, parent); err != nil {
			return st, err
		}
	}
	sum, err := eng.RunContext(ctx, sched)
	st.wall = time.Since(runStart)
	if err != nil {
		return st, err
	}
	for _, d := range timer.adapts {
		st.adapts = append(st.adapts, ms(d))
	}
	p.addRun(st.adapts, st.wall)
	st.eng = eng
	obj := built.Objective
	st.res = sweep.Result{
		Theta:      obj.Theta(sum.MeanGamma, sum.TotalCostUSD),
		Omega:      sum.MeanOmega,
		CostUSD:    sum.TotalCostUSD,
		Violations: eng.InvariantViolations(),
	}
	st.omegaHat = obj.OmegaHat
	st.quality = quality{theta: st.res.Theta, omega: st.res.Omega,
		shortfall: math.Max(0, st.omegaHat-st.res.Omega)}
	if n := len(sum.Tenants); n > 0 {
		var q quality
		for i, ts := range sum.Tenants {
			q.theta += built.TenantObjectives[i].Theta(ts.MeanGamma, ts.SpendUSD) / float64(n)
			q.omega += ts.MeanOmega / float64(n)
			q.shortfall += math.Max(0, built.Config.Tenants[i].OmegaFloor-ts.MeanOmega) / float64(n)
		}
		st.quality = q
	}
	return st, nil
}

func digest(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runBatch is one batch of a single-run workload: the whole scenario is
// the batch, its parse, Build and Deploy the set-up. Its digest is that of
// the run's per-interval metrics CSV.
func runBatch(doc []byte, p *probe) batch {
	b := batch{attempted: 1}
	start := time.Now()
	sc, err := scenario.ParseBytes(doc)
	if err != nil {
		b.failed = 1
		b.problem("parse: %v", err)
		return b
	}
	parse := time.Since(start)
	if p != nil {
		timeTraceGen(sc, p)
	}
	rid := p.begin(0, "run")
	st, err := runOne(sc, p, p.eventTracer(), rid)
	p.end(rid)
	if err != nil {
		b.failed = 1
		b.problem("run: %v", err)
		return b
	}
	b.setup, b.wall = parse+st.setup, st.wall
	b.simHours = sc.HorizonHours
	b.adapts = st.adapts
	var csv bytes.Buffer
	if err := st.eng.Collector().WriteCSV(&csv); err != nil {
		b.problem("metrics CSV: %v", err)
	}
	b.digest = digestBytes(csv.Bytes())
	b.quality = st.quality
	if st.res.Violations != 0 {
		b.problem("%d invariant violations", st.res.Violations)
	}
	return b
}

// runSetup is the set-up of a single-run batch alone: doc is parsed, built
// and deployed, and the engine dropped.
func runSetup(doc []byte) error {
	sc, err := scenario.ParseBytes(doc)
	if err != nil {
		return err
	}
	built, err := sc.Build()
	if err != nil {
		return err
	}
	return built.Engine.RunUntil(context.Background(), built.Scheduler, 0)
}

// timeTraceGen times the replayed-trace generation a Build of sc performs,
// on the scenario's own infra config, and reports whether sc replays traces.
func timeTraceGen(sc *scenario.Scenario, p *probe) bool {
	if sc.Infra.Kind != "replayed" {
		return false
	}
	start := time.Now()
	if _, err := trace.NewReplayed(trace.ReplayedConfig{Seed: sc.Infra.Seed}); err != nil {
		return false
	}
	p.add("trace.gen_ms", ms(time.Since(start)))
	return true
}

// step drives eng to its horizon one interval per RunUntil call. Halfway it
// checkpoints the engine and continues on a restored copy with the same
// scheduler, which exercises the wrapper's state forwarding.
func (p *probe) step(eng *sim.Engine, cfg sim.Config, sched sim.Scheduler, timer *timedScheduler, tr *obs.Tracer, parent int) (*sim.Engine, error) {
	ctx := context.Background()
	interval, horizon := cfg.IntervalSec, cfg.HorizonSec
	half := horizon / 2 / interval * interval
	for eng.Now() < horizon {
		if eng.Now() == half {
			cid := p.begin(parent, "sim.checkpoint")
			start := time.Now()
			snap, err := eng.Checkpoint()
			p.add("sim.checkpoint_ms", ms(time.Since(start)))
			p.end(cid)
			if err != nil {
				return nil, err
			}
			rid := p.begin(parent, "sim.restore")
			start = time.Now()
			restored, err := sim.Restore(snap, cfg)
			p.add("sim.restore_ms", ms(time.Since(start)))
			p.end(rid)
			if err != nil {
				return nil, err
			}
			eng = restored
			p.attach(eng, tr)
		}
		n := len(timer.adapts)
		sid := p.begin(parent, "sim.step")
		timer.parent = sid
		start := time.Now()
		err := eng.RunUntil(ctx, sched, eng.Now()+interval)
		d := time.Since(start)
		p.end(sid)
		if err != nil {
			return nil, err
		}
		if len(timer.adapts) > n {
			d -= timer.adapts[n]
		}
		p.add("sim.step_ms", ms(d))
		p.sampleFleet(eng)
	}
	timer.parent = parent
	return eng, nil
}
