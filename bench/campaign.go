package main

import (
	"context"
	"fmt"
	"time"

	"dynamicdf/internal/sweep"
)

const (
	// probeJobs is how many jobs of each traced campaign batch are re-run
	// serially under the probe. One 10 h job makes 599 Adapt calls, so a
	// single batch already supports a p95.
	probeJobs = 4
)

// expand parses a campaign spec and expands it into its jobs.
func expand(doc []byte) (*sweep.Spec, []sweep.Job, error) {
	spec, err := sweep.ParseSpec(doc)
	if err != nil {
		return nil, nil, fmt.Errorf("spec: %w", err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		return nil, nil, fmt.Errorf("expand: %w", err)
	}
	return spec, jobs, nil
}

// gridSetup is the set-up of a paper-grid batch alone.
func gridSetup(doc []byte) error {
	_, _, err := expand(doc)
	return err
}

// gridBatch is one batch of the paper grid: the spec is parsed and expanded
// (set-up), then run on the in-process pool of procs workers (timed).
func gridBatch(doc []byte, p *probe) batch {
	var b batch
	start := time.Now()
	spec, jobs, err := expand(doc)
	if err != nil {
		b.problem("%v", err)
		return b
	}
	b.setup = time.Since(start)
	p.add("sweep.expand_ms", ms(b.setup))
	rid := p.begin(0, "sweep.run")
	start = time.Now()
	rep, err := (&sweep.Engine{Workers: procs, Tracer: p.eventTracer()}).Run(context.Background(), spec)
	b.wall = time.Since(start)
	p.end(rid)
	if !b.checkReport(jobs, rep, err) {
		return b
	}
	b.finishCampaign(jobs, rep, p)
	if p != nil {
		b.serialMs = serialJobs(jobs, rep, p, &b)
	}
	return b
}

// fabricBatch is one batch of the fault matrix on the fabric: a fresh
// coordinator and worker are started, the worker registers and the spec is
// submitted over HTTP (set-up), then the campaign runs to its report
// (timed). The spec is also expanded locally, outside the set-up, to know
// which jobs fork and which to re-run.
func fabricBatch(doc []byte, p *probe) batch {
	var b batch
	start := time.Now()
	_, jobs, err := expand(doc)
	if err != nil {
		b.problem("%v", err)
		return b
	}
	p.add("sweep.expand_ms", ms(time.Since(start)))
	start = time.Now()
	sid := p.begin(0, "fabric.setup")
	svc, err := startFabric(p)
	if err != nil {
		p.end(sid)
		b.problem("start fabric: %v", err)
		return b
	}
	id, err := svc.submit(doc)
	p.end(sid)
	b.setup = time.Since(start)
	var rep *sweep.Report
	if err == nil {
		rid := p.begin(0, "fabric.campaign")
		start = time.Now()
		rep, err = svc.wait(id)
		b.wall = time.Since(start)
		p.end(rid)
	}
	if serr := svc.stop(); serr != nil {
		b.problem("stop fabric: %v", serr)
	}
	if !b.checkReport(jobs, rep, err) {
		return b
	}
	if want := forkable(jobs); rep.ForkHits != want {
		b.problem("%d forked jobs, want %d", rep.ForkHits, want)
	}
	b.finishCampaign(jobs, rep, p)
	if p != nil {
		serialJobs(jobs, rep, p, &b)
		w := svc.wire
		p.add("sweep.fork_share", float64(rep.ForkHits)/float64(rep.Total))
		p.add("fabric.rtt_share", ms(w.rtt)/(procs*ms(b.wall)))
		p.add("fabric.lease_hit_share", float64(w.leaseHits)/float64(w.leases))
		p.add("fabric.requeues", float64(rep.Requeues)/float64(rep.Total))
		p.add("fabric.heartbeats", float64(w.beats)/float64(rep.Total))
	}
	return b
}

// forkable counts the jobs that share a warm-start prefix with at least one
// other job: the campaign forks exactly those.
func forkable(jobs []sweep.Job) int {
	group := map[string]int{}
	for _, j := range jobs {
		if j.PrefixKey != "" {
			group[j.PrefixKey]++
		}
	}
	n := 0
	for _, c := range group {
		if c >= 2 {
			n += c
		}
	}
	return n
}

// checkReport records a campaign's failures: jobs that errored, were
// quarantined or never finished, and invariant violations (the strict
// checker turns a violation into a job error as well).
func (b *batch) checkReport(jobs []sweep.Job, rep *sweep.Report, err error) bool {
	b.attempted = len(jobs)
	if err != nil {
		b.failed = len(jobs)
		b.problem("campaign: %v", err)
		return false
	}
	b.failed = rep.Errors + rep.Quarantined + rep.Missing
	if b.failed > 0 {
		b.problem("%d errored, %d quarantined, %d missing of %d jobs", rep.Errors, rep.Quarantined, rep.Missing, len(jobs))
	}
	if len(rep.Results) != len(jobs) {
		b.problem("%d results for %d jobs", len(rep.Results), len(jobs))
		return false
	}
	for _, r := range rep.Results {
		if r.Violations != 0 || r.Error != "" {
			b.problem("job %s: %d violations, error %q", r.JobID, r.Violations, r.Error)
		}
	}
	return true
}

// finishCampaign derives a checked campaign's simulated hours, digest and
// quality, and re-runs its probe jobs.
func (b *batch) finishCampaign(jobs []sweep.Job, rep *sweep.Report, p *probe) {
	for _, j := range jobs {
		b.simHours += j.Scenario.HorizonHours
	}
	b.digest = digest(rep.Rows) + digest(rep.Results)
	omegaHat := 0.0
	if p != nil {
		omegaHat = b.probe(jobs, rep, p)
	}
	n := float64(len(rep.Results))
	for _, r := range rep.Results {
		b.quality.theta += r.Theta / n
		b.quality.omega += r.Omega / n
		b.quality.shortfall += max(0, omegaHat-r.Omega) / n
	}
}

// probe re-runs probeJobs jobs spread over the grid, cold and one at a
// time, stepped under the probe. The pool and the fabric run each job's
// engine and scheduler out of reach, so these runs supply the campaign's
// engine and decision measurements; each must also reproduce its campaign
// result exactly. It returns the jobs' Ω constraint.
func (b *batch) probe(jobs []sweep.Job, rep *sweep.Report, p *probe) (omegaHat float64) {
	timedGen := false
	for k := 0; k < probeJobs && k < len(jobs); k++ {
		// A stride of 53 is coprime with every axis length, so the probes
		// land on different policies, variabilities, rates and faults.
		i := (17 + 53*k) % len(jobs)
		if !timedGen {
			timedGen = timeTraceGen(jobs[i].Scenario, p)
		}
		pid := p.begin(0, "probe.job")
		st, err := runOne(jobs[i].Scenario, p, nil, pid)
		p.end(pid)
		if err != nil {
			b.problem("probe %s: %v", jobs[i].ID, err)
			continue
		}
		b.same(jobs[i].ID, st.res, rep.Results[i])
		omegaHat = st.omegaHat
	}
	return omegaHat
}

// serialJobs re-runs every job of the campaign through sweep.ExecuteJob,
// cold and one at a time: the single-threaded baseline of the campaign's
// jobs, each of which must reproduce its campaign result. It returns the
// summed job wall in ms.
func serialJobs(jobs []sweep.Job, rep *sweep.Report, p *probe, b *batch) float64 {
	total := 0.0
	for i, job := range jobs {
		sid := p.begin(0, "sweep.job")
		start := time.Now()
		res, _ := sweep.ExecuteJob(context.Background(), job, nil, nil, nil, i)
		d := ms(time.Since(start))
		p.end(sid)
		p.add("sweep.job_ms", d)
		total += d
		b.same(job.ID, res, rep.Results[i])
	}
	return total
}

// same checks that a cold re-run of a job reproduced the campaign's result
// exactly in Θ, Ω and cost.
func (b *batch) same(id string, got, want sweep.Result) {
	if want.JobID != id {
		b.problem("campaign result %s stands where job %s belongs", want.JobID, id)
		return
	}
	if got.Error != "" || got.Theta != want.Theta || got.Omega != want.Omega || got.CostUSD != want.CostUSD {
		b.problem("job %s re-run: theta %v omega %v cost %v error %q, campaign had %v %v %v",
			id, got.Theta, got.Omega, got.CostUSD, got.Error, want.Theta, want.Omega, want.CostUSD)
	}
}
