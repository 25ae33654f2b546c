package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dynamicdf/internal/metrics"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
)

// ErrDrained is returned by Engine.Run when a drain request stopped the
// campaign before every job completed. Completed jobs are journaled; the
// rest re-run on resume.
var ErrDrained = errors.New("sweep: drained before completion")

// Result is one finished job: the coordinates plus the run's aggregate
// quantities. Error is set (and the metric fields zero) when the job
// failed deterministically — such failures are journaled too, so a resume
// does not rebuild known-bad scenarios.
type Result struct {
	JobID      string  `json:"jobId"`
	Key        string  `json:"key"`
	Group      string  `json:"group"`
	Seed       int64   `json:"seed"`
	Error      string  `json:"error,omitempty"`
	Intervals  int     `json:"intervals,omitempty"`
	Theta      float64 `json:"theta"`
	Omega      float64 `json:"omega"`
	MinOmega   float64 `json:"minOmega"`
	Gamma      float64 `json:"gamma"`
	CostUSD    float64 `json:"costUsd"`
	UsedCores  float64 `json:"usedCores"`
	MeanVMs    float64 `json:"meanVms"`
	LatencySec float64 `json:"latencySec"`
	MeetsOmega bool    `json:"meetsOmega"`
	// PeakVMs is the largest fleet the run held. Omitted when zero, so a
	// journal entry written before the field existed re-encodes unchanged.
	PeakVMs int `json:"peakVms,omitempty"`
	// Violations counts invariant violations the scenario's checker
	// recorded (0 when the scenario has no check block). A strict checker
	// also sets Error, since the run aborts at the first violation.
	Violations int `json:"violations,omitempty"`
	// Forked marks a job that resumed from a shared warm-start prefix
	// checkpoint instead of simulating from zero.
	Forked bool `json:"forked,omitempty"`
	// Tenants carries the per-tenant slice of a multi-tenant job, in the
	// scenario's declaration order; nil for single-tenant scenarios, so
	// existing journal entries decode (and re-encode) unchanged.
	Tenants []TenantResult `json:"tenants,omitempty"`

	// Cached marks a result served from the journal instead of executed
	// this run. Never persisted.
	Cached bool `json:"-"`
}

// TenantResult is one tenant's slice of a multi-tenant job's outcome. Theta
// and MeetsOmega are judged against the tenant's own calibrated objective,
// with the tenant's attributed spend standing in for the whole bill.
type TenantResult struct {
	Name       string  `json:"name"`
	Theta      float64 `json:"theta"`
	Omega      float64 `json:"omega"`
	MinOmega   float64 `json:"minOmega"`
	Gamma      float64 `json:"gamma"`
	SpendUSD   float64 `json:"spendUsd"`
	MeetsOmega bool    `json:"meetsOmega"`
}

// Progress is a point-in-time view of a running campaign.
type Progress struct {
	Total     int `json:"total"`
	Done      int `json:"done"` // cache hits + executed (+ quarantined on the fabric)
	Running   int `json:"running"`
	CacheHits int `json:"cacheHits"`
	Executed  int `json:"executed"`
	Errors    int `json:"errors"`
	ForkHits  int `json:"forkHits,omitempty"`
	// Requeues, Quarantined, and Workers are populated by the distributed
	// fabric (internal/sweep/fabric); the in-process pool leaves them zero.
	Requeues    int    `json:"requeues,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	LastJob     string `json:"lastJob,omitempty"`
}

// Report is a campaign's outcome: per-job results in deterministic grid
// order plus the aggregated per-group rows.
type Report struct {
	Name      string `json:"name"`
	Total     int    `json:"total"`
	CacheHits int    `json:"cacheHits"`
	Executed  int    `json:"executed"`
	Errors    int    `json:"errors"`
	ForkHits  int    `json:"forkHits,omitempty"` // jobs forked from warm-start prefixes
	Missing   int    `json:"missing"`            // jobs unfinished after cancel/drain
	// Requeues counts leases that expired and sent their job back to the
	// queue; Quarantined counts jobs retired as poison after repeated lease
	// failures. Both stay zero on the in-process pool.
	Requeues    int      `json:"requeues,omitempty"`
	Quarantined int      `json:"quarantined,omitempty"`
	Rows        []AggRow `json:"rows"`
	Results     []Result `json:"results"`
}

// HitRate reports the fraction of jobs served from the journal.
func (r *Report) HitRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Total)
}

// Engine executes sweep campaigns on a bounded worker pool. Its fields are
// the pool's own; a campaign's journal, progress sink and drain signal come
// through RunOpts.
type Engine struct {
	// Workers bounds concurrent jobs (default GOMAXPROCS, min 1).
	Workers int
	// Tracer, when non-nil, receives a sweep-job span per executed job plus
	// every traced event the per-job sim engines emit. Concurrent workers
	// interleave their events arbitrarily.
	Tracer *obs.Tracer
	// Pool, when non-nil, is updated as jobs move through the worker pool.
	Pool *obs.PoolMetrics
	// Gauges, when non-nil, is attached to every per-job sim engine so the
	// exposition handler shows live run state (last writer wins across
	// concurrent workers); Theta is set as each job completes.
	Gauges *obs.RunGauges
}

// Run expands the spec and runs it (RunCampaign) with no journal, progress
// sink or drain signal.
func (e *Engine) Run(ctx context.Context, spec *Spec) (*Report, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return e.RunCampaign(ctx, spec, jobs, RunOpts{})
}

// RunOpts carries a campaign's execution context for a CampaignRunner: the
// per-campaign journal, progress sink, and drain signal. OnProgress is
// invoked serially and must not call back into the runner. Closing Drain
// requests a graceful stop: in-flight jobs finish and are journaled, queued
// jobs are abandoned, and the run returns ErrDrained.
type RunOpts struct {
	Journal    *Journal
	OnProgress func(Progress)
	Drain      <-chan struct{}
}

// CampaignRunner executes an expanded spec to completion. The in-process
// Engine is the built-in implementation; internal/sweep/fabric provides a
// distributed one (lease-based coordinator + HTTP workers). The Server
// picks whichever its config names. jobs is spec.Expand()'s result, which
// the caller already holds; a runner reads it and never writes into it.
// Both keep the campaign's books in a Ledger.
type CampaignRunner interface {
	RunCampaign(ctx context.Context, spec *Spec, jobs []Job, opts RunOpts) (*Report, error)
}

// RunCampaign implements CampaignRunner on the in-process pool: it executes
// every job the journal does not already hold. Cancelling ctx aborts
// in-flight simulations mid-horizon (via sim.RunContext); those jobs are
// not journaled and re-run on resume. The returned report is valid — with
// Missing > 0 — even when the error is non-nil.
func (e *Engine) RunCampaign(ctx context.Context, spec *Spec, jobs []Job, opts RunOpts) (*Report, error) {
	l := NewLedger(spec, jobs, opts)
	pending := l.Pending()
	if e.Pool != nil {
		e.Pool.CacheHits.Add(float64(len(jobs) - len(pending)))
		e.Pool.JobsQueued.Set(float64(len(pending)))
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}

	// The run's jobs share one memo; mu guards the ledger and running.
	var (
		memo    ForkMemo
		mu      sync.Mutex
		running int
	)
	l.Emit(0, 0)

	// The dispatcher also stops once every worker has: a worker quits on a
	// journal failure, and the dispatcher must not wait on it for ever.
	ch, quit := make(chan int), make(chan struct{})
	go func() {
		defer close(ch)
		for _, i := range pending {
			select {
			case <-ctx.Done():
				return
			case <-opts.Drain:
				return
			case <-quit:
				return
			case ch <- i:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				mu.Lock()
				running++
				mu.Unlock()
				if e.Pool != nil {
					e.Pool.JobsQueued.Add(-1)
					e.Pool.JobsRunning.Add(1)
				}
				e.Tracer.Emit(obs.Event{Type: obs.EventSweepJob,
					Phase: obs.PhaseStart, N: i, Detail: jobs[i].ID})
				r, canceled := memo.Execute(ctx, jobs[i], l.ForkSec(i), e.Tracer, e.Gauges, i)
				if e.Pool != nil {
					e.Pool.JobsRunning.Add(-1)
					if !canceled {
						e.Pool.JobsDone.Inc()
						if r.Error != "" {
							e.Pool.JobsErrors.Inc()
						}
					}
				}
				var err error
				mu.Lock()
				running--
				if !canceled {
					if err = l.Complete(i, r); err == nil {
						l.Emit(running, 0)
					}
				}
				mu.Unlock()
				if err != nil {
					return // the journal failed; Report returns its error
				}
			}
		}()
	}
	wg.Wait()
	close(quit)
	return l.Report(ctx)
}

// runPrefix simulates a warm-start prefix scenario to untilSec and returns
// its checkpoint, or nil on any failure (build error, cancellation, panic):
// warm-starting is an optimization, never a new failure mode. No tracer or
// gauges are attached — the prefix's events would otherwise appear once for
// the whole group instead of once per job, breaking per-job trace
// accounting. The prefix lowers through memo, its campaign's memo (nil
// generates afresh), onto an engine that keeps its metric rows, which
// the checkpoint carries. Both the in-process pool and fabric workers reach
// it through a ForkMemo, so warm and cold runs stay byte-equivalent across
// topologies.
func runPrefix(ctx context.Context, sc *scenario.Scenario, untilSec int64, memo *scenario.Memo) (snap *state.Snapshot) {
	defer func() { recover() }() // a panicking prefix falls back to cold runs
	built, err := sc.Lower(memo)
	if err != nil {
		return nil
	}
	eng, err := sim.NewEngine(built.Config)
	if err != nil {
		return nil
	}
	if err := eng.RunUntil(ctx, built.Scheduler, untilSec); err != nil {
		return nil
	}
	s, err := eng.Checkpoint()
	if err != nil {
		return nil
	}
	return s
}

// ExecuteJob builds and runs one resolved job in isolation: a fresh engine
// and scheduler per job, panics converted to deterministic job errors, and
// cancellation distinguished from failure. The tracer and gauges are
// attached to the job's sim engine; the closing sweep-job span carries the
// job's outcome (Value = Theta, or the error in Detail) with n tagging the
// span. A non-nil snap forks the job from a warm-start prefix checkpoint
// when restorable; any warm-start failure silently degrades to a cold run.
// The job lowers through job.Memo, its campaign's memo; a job as Expand
// returns it has none and generates its own traces and walks. Fabric workers
// share this path with the in-process pool, so a job's result is identical
// regardless of where it executes. A job reports only its run's summary, so
// its one engine, restored or fresh, is SummaryOnly and keeps no rows.
func ExecuteJob(ctx context.Context, job Job, snap *state.Snapshot, tracer *obs.Tracer, gauges *obs.RunGauges, n int) (res Result, canceled bool) {
	res = Result{JobID: job.ID, Key: job.Key, Group: job.Group, Seed: job.Seed}
	defer func() {
		if p := recover(); p != nil {
			res.Error = fmt.Sprintf("panic: %v", p)
		}
		ev := obs.Event{Type: obs.EventSweepJob, Phase: obs.PhaseEnd,
			N: n, Detail: job.ID, Value: res.Theta}
		switch {
		case canceled:
			ev.Detail = job.ID + " canceled"
		case res.Error != "":
			ev.Detail = job.ID + " error: " + res.Error
		}
		tracer.Emit(ev)
	}()
	built, err := job.Scenario.Lower(job.Memo)
	if err != nil {
		res.Error = err.Error()
		return res, false
	}
	cfg := built.Config
	cfg.SummaryOnly = true
	var eng *sim.Engine
	if snap != nil {
		if eng, err = sim.Restore(snap, cfg); err == nil {
			res.Forked = true
		}
	}
	if !res.Forked {
		if eng, err = sim.NewEngine(cfg); err != nil {
			res.Error = err.Error()
			return res, false
		}
	}
	eng.SetTracer(tracer)
	eng.SetGauges(gauges)
	sum, err := eng.RunContext(ctx, built.Scheduler)
	res.Violations = eng.InvariantViolations()
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			return res, true
		}
		res.Error = err.Error()
		return res, false
	}
	res.SetSummary(built, sum)
	if gauges != nil {
		gauges.Theta.Set(res.Theta)
	}
	return res, false
}

// SetSummary fills a job's outcome from its run's summary, judged against
// the scenario's objectives.
func (res *Result) SetSummary(built *scenario.Built, sum metrics.Summary) {
	res.Intervals = sum.Intervals
	res.Theta = built.Objective.Theta(sum.MeanGamma, sum.TotalCostUSD)
	res.Omega = sum.MeanOmega
	res.MinOmega = sum.MinOmega
	res.Gamma = sum.MeanGamma
	res.CostUSD = sum.TotalCostUSD
	res.UsedCores = sum.MeanUsedCores
	res.MeanVMs = sum.MeanVMs
	res.PeakVMs = sum.PeakVMs
	res.LatencySec = sum.MeanLatencySec
	res.MeetsOmega = built.Objective.MeetsConstraint(sum.MeanOmega)
	for i, ts := range sum.Tenants {
		obj := built.Objective
		if i < len(built.TenantObjectives) {
			obj = built.TenantObjectives[i]
		}
		res.Tenants = append(res.Tenants, TenantResult{
			Name:       ts.Name,
			Theta:      obj.Theta(ts.MeanGamma, ts.SpendUSD),
			Omega:      ts.MeanOmega,
			MinOmega:   ts.MinOmega,
			Gamma:      ts.MeanGamma,
			SpendUSD:   ts.SpendUSD,
			MeetsOmega: obj.MeetsConstraint(ts.MeanOmega),
		})
	}
}
