package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"dynamicdf/internal/metrics"
	"dynamicdf/internal/obs"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/state"
	"dynamicdf/internal/trace"
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

// Engine executes sweep campaigns on a bounded worker pool.
type Engine struct {
	// Workers bounds concurrent jobs (default GOMAXPROCS, min 1).
	Workers int
	// Journal, when set, caches completions and enables resume.
	Journal *Journal
	// OnProgress, when set, observes each job completion. It is invoked
	// serially and must not call back into the engine.
	OnProgress func(Progress)
	// Drain, when non-nil, requests a graceful stop once closed: in-flight
	// jobs finish and are journaled, queued jobs are abandoned, and Run
	// returns ErrDrained.
	Drain <-chan struct{}
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

// Run expands the spec and executes every job not already journaled.
// Cancelling ctx aborts in-flight simulations mid-horizon (via
// sim.RunContext); those jobs are not journaled and re-run on resume. The
// returned report is valid — with Missing > 0 — even when the error is
// non-nil.
func (e *Engine) Run(ctx context.Context, spec *Spec) (*Report, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return e.run(ctx, spec, jobs)
}

// run executes the spec's expanded jobs, which it owns: it sets their Pools.
func (e *Engine) run(ctx context.Context, spec *Spec, jobs []Job) (*Report, error) {
	// The run's jobs and warm-start prefixes share its replayed trace pools.
	pools := new(trace.Pools)
	for i := range jobs {
		jobs[i].Pools = pools
	}
	report := &Report{Name: spec.Name, Total: len(jobs)}
	results := make([]*Result, len(jobs))

	// Serve journaled completions without touching the pool.
	var pending []int
	for i := range jobs {
		if e.Journal != nil {
			if r, ok := e.Journal.Lookup(jobs[i].Key); ok {
				r.JobID = jobs[i].ID
				r.Group = jobs[i].Group
				r.Seed = jobs[i].Seed
				r.Cached = true
				results[i] = &r
				report.CacheHits++
				if e.Pool != nil {
					e.Pool.CacheHits.Inc()
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	if e.Pool != nil {
		e.Pool.JobsQueued.Set(float64(len(pending)))
	}

	// Warm-start: pending jobs that share a prefix key fork one checkpointed
	// prefix run instead of each simulating its first PrefixSec from zero.
	// Only groups with at least two pending members benefit; singletons run
	// cold. The prefix simulates lazily — the first worker to reach a group
	// runs it, the rest of the group reuses the snapshot.
	prefixes := map[string]*prefixRun{}
	if spec.WarmStart != nil {
		count := map[string]int{}
		for _, i := range pending {
			if jobs[i].Prefix != nil {
				count[jobs[i].PrefixKey]++
			}
		}
		for key, n := range count {
			if n >= 2 {
				prefixes[key] = &prefixRun{untilSec: spec.WarmStart.PrefixSec}
			}
		}
	}

	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}

	var (
		mu         sync.Mutex
		journalErr error
	)
	running := 0
	emit := func(last string) {
		if e.OnProgress == nil {
			return
		}
		e.OnProgress(Progress{
			Total:     report.Total,
			Done:      report.CacheHits + report.Executed,
			Running:   running,
			CacheHits: report.CacheHits,
			Executed:  report.Executed,
			Errors:    report.Errors,
			ForkHits:  report.ForkHits,
			LastJob:   last,
		})
	}
	mu.Lock()
	emit("")
	mu.Unlock()

	ch := make(chan int)
	go func() {
		defer close(ch)
		for _, i := range pending {
			select {
			case <-ctx.Done():
				return
			case <-e.Drain:
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
				r, canceled := e.runJob(ctx, i, jobs[i], prefixes[jobs[i].PrefixKey])
				if e.Pool != nil {
					e.Pool.JobsRunning.Add(-1)
					if !canceled {
						e.Pool.JobsDone.Inc()
						if r.Error != "" {
							e.Pool.JobsErrors.Inc()
						}
					}
				}
				mu.Lock()
				running--
				mu.Unlock()
				if canceled {
					continue
				}
				if e.Journal != nil {
					if err := e.Journal.Append(r); err != nil {
						mu.Lock()
						if journalErr == nil {
							journalErr = err
						}
						mu.Unlock()
						return
					}
				}
				mu.Lock()
				results[i] = &r
				report.Executed++
				if r.Error != "" {
					report.Errors++
				}
				if r.Forked {
					report.ForkHits++
				}
				emit(r.JobID)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for i := range results {
		if results[i] == nil {
			report.Missing++
			continue
		}
		report.Results = append(report.Results, *results[i])
	}
	report.Rows = Aggregate(jobs, results)

	switch {
	case journalErr != nil:
		return report, journalErr
	case ctx.Err() != nil:
		return report, fmt.Errorf("sweep: %d/%d jobs incomplete: %w", report.Missing, report.Total, ctx.Err())
	case report.Missing > 0:
		return report, fmt.Errorf("%w (%d/%d jobs incomplete)", ErrDrained, report.Missing, report.Total)
	}
	return report, nil
}

// RunOpts carries a campaign's execution context for a CampaignRunner: the
// per-campaign journal, progress sink, and drain signal the hosting server
// owns.
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
type CampaignRunner interface {
	RunCampaign(ctx context.Context, spec *Spec, jobs []Job, opts RunOpts) (*Report, error)
}

// RunCampaign implements CampaignRunner on the in-process pool. The
// receiver acts as a template (Workers, Pool, Gauges, Tracer); the
// per-campaign journal, progress sink, and drain channel come from opts.
// The jobs run as copies, so the caller's slice is left as it was.
func (e *Engine) RunCampaign(ctx context.Context, spec *Spec, jobs []Job, opts RunOpts) (*Report, error) {
	eng := *e
	eng.Journal = opts.Journal
	eng.OnProgress = opts.OnProgress
	eng.Drain = opts.Drain
	return eng.run(ctx, spec, slices.Clone(jobs))
}

// prefixRun is one shared warm-start prefix: the first worker to need it
// simulates the prefix scenario to untilSec and checkpoints; everyone else
// waits on the Once and forks the snapshot. A nil snap after the Once means
// the prefix failed (build error, cancellation, ...) and the group's jobs
// fall back to cold runs — warm-starting is an optimization, never a new
// failure mode.
type prefixRun struct {
	once     sync.Once
	untilSec int64
	snap     *state.Snapshot
}

// RunPrefix simulates a warm-start prefix scenario to untilSec and returns
// its checkpoint, or nil on any failure (build error, cancellation, panic):
// warm-starting is an optimization, never a new failure mode. No tracer or
// gauges are attached — the prefix's events would otherwise appear once for
// the whole group instead of once per job, breaking per-job trace
// accounting. The prefix builds through pools, its campaign's trace memo
// (nil generates afresh), onto an engine that keeps its metric rows, which
// the checkpoint carries. Both the in-process pool and fabric workers share
// this path, so warm and cold runs stay byte-equivalent across topologies.
func RunPrefix(ctx context.Context, sc *scenario.Scenario, untilSec int64, pools *trace.Pools) (snap *state.Snapshot) {
	defer func() { recover() }() // a panicking prefix falls back to cold runs
	built, err := sc.BuildWith(pools)
	if err != nil {
		return nil
	}
	if err := built.Engine.RunUntil(ctx, built.Scheduler, untilSec); err != nil {
		return nil
	}
	s, err := built.Engine.Checkpoint()
	if err != nil {
		return nil
	}
	return s
}

// runJob resolves the group's shared prefix checkpoint (simulating it once
// per group) and hands the job to ExecuteJob.
func (e *Engine) runJob(ctx context.Context, idx int, job Job, pr *prefixRun) (Result, bool) {
	var snap *state.Snapshot
	if pr != nil {
		pr.once.Do(func() { pr.snap = RunPrefix(ctx, job.Prefix, pr.untilSec, job.Pools) })
		snap = pr.snap
	}
	return ExecuteJob(ctx, job, snap, e.Tracer, e.Gauges, idx)
}

// ExecuteJob builds and runs one resolved job in isolation: a fresh engine
// and scheduler per job, panics converted to deterministic job errors, and
// cancellation distinguished from failure. The tracer and gauges are
// attached to the job's sim engine; the closing sweep-job span carries the
// job's outcome (Value = Theta, or the error in Detail) with n tagging the
// span. A non-nil snap forks the job from a warm-start prefix checkpoint
// when restorable; any warm-start failure silently degrades to a cold run.
// The job builds through job.Pools, its campaign's trace memo; a job as
// Expand returns it has none and generates its own traces. Fabric workers
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
	built, err := job.Scenario.Lower(job.Pools)
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
	res.setSummary(built, sum)
	if gauges != nil {
		gauges.Theta.Set(res.Theta)
	}
	return res, false
}

// setSummary fills a job's outcome from its run's summary, judged against
// the scenario's objectives.
func (res *Result) setSummary(built *scenario.Built, sum metrics.Summary) {
	res.Intervals = sum.Intervals
	res.Theta = built.Objective.Theta(sum.MeanGamma, sum.TotalCostUSD)
	res.Omega = sum.MeanOmega
	res.MinOmega = sum.MinOmega
	res.Gamma = sum.MeanGamma
	res.CostUSD = sum.TotalCostUSD
	res.UsedCores = sum.MeanUsedCores
	res.MeanVMs = sum.MeanVMs
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
