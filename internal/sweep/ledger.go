package sweep

import (
	"context"
	"fmt"
	"sync"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/state"
)

// Ledger is one campaign's bookkeeping, kept the same way by both runners,
// the in-process pool (Engine) and the fabric coordinator (fabric.Hub): it
// serves the jobs the journal already holds, picks the warm-start groups
// that fork, journals and counts each result, publishes progress from its
// counters and assembles the terminal report. Which job runs where and when
// is the runner's own. A Ledger is not safe for concurrent use: each runner
// calls it under its own lock, except Pending and ForkSec, which only read
// what NewLedger decided.
type Ledger struct {
	jobs       []Job
	journal    *Journal
	onProgress func(Progress)
	results    []*Result
	pending    []int
	// forkSec is the warm-start prefix length; forks holds the prefix keys
	// whose jobs fork it.
	forkSec int64
	forks   map[string]bool
	// report holds the counters; Report fills in the rest.
	report  Report
	lastJob string
	err     error // the first journal failure
}

// NewLedger opens the books of the campaign spec expands into jobs. Every
// job opts.Journal already holds is served from it, stamped with the job's
// identity; the rest are pending. Pending jobs that share a warm-start
// prefix key fork one checkpointed prefix instead of each simulating its
// first PrefixSec from zero, but only where at least two members of the
// group are still pending after the journal is read: a singleton runs cold.
func NewLedger(spec *Spec, jobs []Job, opts RunOpts) *Ledger {
	l := &Ledger{
		jobs:       jobs,
		journal:    opts.Journal,
		onProgress: opts.OnProgress,
		results:    make([]*Result, len(jobs)),
		report:     Report{Name: spec.Name, Total: len(jobs)},
	}
	var pendingPerPrefix map[string]int
	if spec.WarmStart != nil {
		pendingPerPrefix = map[string]int{}
		l.forkSec, l.forks = spec.WarmStart.PrefixSec, map[string]bool{}
	}
	for i := range jobs {
		if l.journal != nil {
			if r, ok := l.journal.Lookup(jobs[i].Key); ok {
				l.results[i] = l.stamp(i, r, true)
				l.report.CacheHits++
				continue
			}
		}
		l.pending = append(l.pending, i)
		if pendingPerPrefix != nil && jobs[i].PrefixKey != "" {
			pendingPerPrefix[jobs[i].PrefixKey]++
		}
	}
	for key, n := range pendingPerPrefix {
		if n >= 2 {
			l.forks[key] = true
		}
	}
	return l
}

// stamp gives r job i's identity as the campaign knows it, whatever the
// journal line or the delivery carried.
func (l *Ledger) stamp(i int, r Result, cached bool) *Result {
	r.JobID, r.Group, r.Seed, r.Cached = l.jobs[i].ID, l.jobs[i].Group, l.jobs[i].Seed, cached
	return &r
}

// Pending returns the indices, in grid order, of the jobs the journal did
// not hold.
func (l *Ledger) Pending() []int { return l.pending }

// ForkSec returns the simulated second at which job i forks its group's
// warm-start prefix, or 0 when the job runs cold.
func (l *Ledger) ForkSec(i int) int64 {
	if l.forks[l.jobs[i].PrefixKey] {
		return l.forkSec
	}
	return 0
}

// Complete journals r as job i's result and counts it. A journal failure
// becomes the campaign's error (the first one is kept) and the result is
// not counted, so its job re-runs on resume.
func (l *Ledger) Complete(i int, r Result) error {
	res := l.stamp(i, r, false)
	if l.journal != nil {
		if err := l.journal.Append(*res); err != nil {
			if l.err == nil {
				l.err = err
			}
			return err
		}
	}
	l.results[i] = res
	l.report.Executed++
	if res.Error != "" {
		l.report.Errors++
	}
	if res.Forked {
		l.report.ForkHits++
	}
	l.lastJob = res.JobID
	return nil
}

// Quarantine retires job i with reason as its error. Lease failures are
// operational, not deterministic, so the result is not journaled: a
// resumed campaign retries the job.
func (l *Ledger) Quarantine(i int, reason string) {
	j := &l.jobs[i]
	l.results[i] = &Result{JobID: j.ID, Key: j.Key, Group: j.Group, Seed: j.Seed, Error: reason}
	l.report.Quarantined++
	l.report.Errors++
}

// Requeued counts one lease that expired and sent its job back to the
// queue.
func (l *Ledger) Requeued() { l.report.Requeues++ }

// Err returns the campaign's journal failure, if any.
func (l *Ledger) Err() error { return l.err }

// Emit publishes the campaign's progress to its sink, if any. running is
// the runner's count of jobs in flight and workers its count of live
// fabric workers (0 on the pool).
func (l *Ledger) Emit(running, workers int) {
	if l.onProgress != nil {
		l.onProgress(l.report.progress(running, workers, l.lastJob))
	}
}

// Report assembles the terminal report: results in grid order, the count
// of jobs still missing and the per-group aggregate. Its error is the
// journal failure if there was one, else ctx's cancellation, else the
// drain that left jobs unfinished. The report is valid, with Missing > 0,
// even when the error is non-nil.
func (l *Ledger) Report(ctx context.Context) (*Report, error) {
	report := l.report
	for _, r := range l.results {
		if r == nil {
			report.Missing++
			continue
		}
		report.Results = append(report.Results, *r)
	}
	report.Rows = Aggregate(l.jobs, l.results)
	switch {
	case l.err != nil:
		return &report, l.err
	case ctx.Err() != nil:
		return &report, fmt.Errorf("sweep: %d/%d jobs incomplete: %w", report.Missing, report.Total, ctx.Err())
	case report.Missing > 0:
		return &report, fmt.Errorf("%w (%d/%d jobs incomplete)", ErrDrained, report.Missing, report.Total)
	}
	return &report, nil
}

// progress reads a campaign's progress off the report's counters; running,
// workers and last come from the runner.
func (r *Report) progress(running, workers int, last string) Progress {
	return Progress{
		Total:       r.Total,
		Done:        r.CacheHits + r.Executed + r.Quarantined,
		Running:     running,
		CacheHits:   r.CacheHits,
		Executed:    r.Executed,
		Errors:      r.Errors,
		ForkHits:    r.ForkHits,
		Requeues:    r.Requeues,
		Quarantined: r.Quarantined,
		Workers:     workers,
		LastJob:     last,
	}
}

// ForkMemo is what one runner keeps of a campaign to run its jobs: the
// scenario memo they lower through (replayed trace pools and random-walk
// prefixes) and each warm-start group's prefix checkpoint, simulated at
// most once. The pool keeps one per run and a fabric worker one per
// campaign it works on. Safe for concurrent use; the zero value is ready.
type ForkMemo struct {
	memo     scenario.Memo
	mu       sync.Mutex
	prefixes map[string]*prefixRun
}

// prefixRun is one fork group's prefix checkpoint: the first job to need
// it simulates the prefix, the rest of the group wait on the Once and fork
// the snapshot. A nil snap after the Once means the prefix failed and the
// group's jobs run cold.
type prefixRun struct {
	once sync.Once
	snap *state.Snapshot
}

// Execute runs job (ExecuteJob) through the scenario memo. With forkSec > 0
// the job forks its group's prefix checkpoint at forkSec, which the
// group's first job simulates; with 0 it runs cold.
func (m *ForkMemo) Execute(ctx context.Context, job Job, forkSec int64, tracer *obs.Tracer, gauges *obs.RunGauges, n int) (Result, bool) {
	job.Memo = &m.memo
	var snap *state.Snapshot
	if forkSec > 0 && job.Prefix != nil && job.PrefixKey != "" {
		m.mu.Lock()
		p := m.prefixes[job.PrefixKey]
		if p == nil {
			if m.prefixes == nil {
				m.prefixes = map[string]*prefixRun{}
			}
			p = &prefixRun{}
			m.prefixes[job.PrefixKey] = p
		}
		m.mu.Unlock()
		p.once.Do(func() { p.snap = runPrefix(ctx, job.Prefix, forkSec, job.Memo) })
		snap = p.snap
	}
	return ExecuteJob(ctx, job, snap, tracer, gauges, n)
}
