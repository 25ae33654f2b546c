package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
)

// ErrCrashed is returned by Worker.Run when an injected crash fault killed
// the worker mid-job. Real deployments never see it; chaos harnesses
// respawn the worker.
var ErrCrashed = errors.New("fabric: worker crashed (injected fault)")

// WorkerConfig tunes one fabric worker.
type WorkerConfig struct {
	// ID names the worker to the coordinator (unique per process).
	ID string
	// Client reaches the coordinator.
	Client *Client
	// Slots bounds concurrently leased jobs (default 1).
	Slots int
	// PollInterval is the idle re-poll cadence when no work is available
	// (default 200ms).
	PollInterval time.Duration
	// Faults, when non-nil, injects deterministic fabric failures (tests
	// only).
	Faults *Faults
	// Tracer and Gauges attach to every job's sim engine, exactly as on
	// the in-process pool.
	Tracer *obs.Tracer
	Gauges *obs.RunGauges
	// Logf, when non-nil, receives worker lifecycle lines.
	Logf func(format string, args ...interface{})
}

// Worker leases jobs from a coordinator, runs them with the same execution
// semantics as the in-process pool (sweep.ExecuteJob over the canonical
// scenario bytes), and acks results idempotently — re-sending until an ack
// lands, so dropped deliveries or coordinator restarts cannot lose or
// double-count a completion. A heartbeat loop renews every held lease at
// the cadence the coordinator dictates; when a heartbeat response revokes
// a lease (expired, re-assigned, campaign gone) the matching run is
// cancelled. Each campaign's jobs run through one sweep.ForkMemo per
// worker, so its warm-start prefixes are simulated once per fork group and
// its replayed trace pools and random walks generated once.
type Worker struct {
	cfg WorkerConfig

	mu        sync.Mutex
	held      map[LeaseRef]context.CancelFunc
	campaigns map[string]*campaignState
}

// campaignState is what a worker keeps for one campaign it is working on:
// the memo its jobs run through. It lives while the worker works on the
// campaign (see enter).
type campaignState struct {
	active int // leases of the campaign in process on this worker
	memo   sweep.ForkMemo
}

// NewWorker returns an idle worker.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	return &Worker{
		cfg:       cfg,
		held:      map[LeaseRef]context.CancelFunc{},
		campaigns: map[string]*campaignState{},
	}
}

// Run registers with the coordinator and processes jobs until ctx is
// cancelled (returning ctx.Err()) or an injected crash fault fires
// (returning ErrCrashed).
func (w *Worker) Run(ctx context.Context) error {
	info, err := w.cfg.Client.Register(ctx, w.cfg.ID)
	if err != nil {
		return fmt.Errorf("fabric: worker %s register: %w", w.cfg.ID, err)
	}
	w.logf("worker %s registered (lease TTL %s, heartbeat %s)",
		w.cfg.ID, info.LeaseTTL(), info.HeartbeatEvery())

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		crashOnce sync.Once
		crashErr  error
	)
	crash := func(err error) {
		crashOnce.Do(func() {
			crashErr = err
			cancel()
		})
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(info.HeartbeatEvery())
		defer t.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-t.C:
				w.heartbeat(runCtx)
			}
		}
	}()

	for s := 0; s < w.cfg.Slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				lease, err := w.cfg.Client.Lease(runCtx, w.cfg.ID)
				if err != nil || lease == nil {
					sleepCtx(runCtx, w.cfg.PollInterval)
					continue
				}
				if err := w.process(runCtx, lease); err != nil {
					crash(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if crashErr != nil {
		return crashErr
	}
	return ctx.Err()
}

// heartbeat renews every held lease and cancels runs whose leases the
// coordinator revoked.
func (w *Worker) heartbeat(ctx context.Context) {
	w.mu.Lock()
	held := make([]LeaseRef, 0, len(w.held))
	for ref := range w.held {
		held = append(held, ref)
	}
	w.mu.Unlock()
	expired, err := w.cfg.Client.Heartbeat(ctx, w.cfg.ID, held)
	if err != nil {
		return // transient; the next tick retries, the TTL bounds the damage
	}
	for _, ref := range expired {
		w.mu.Lock()
		cancel := w.held[ref]
		delete(w.held, ref)
		w.mu.Unlock()
		if cancel != nil {
			w.logf("worker %s: lease %s revoked, abandoning run", w.cfg.ID, ref.Key[:12])
			cancel()
		}
	}
}

func (w *Worker) hold(ref LeaseRef, cancel context.CancelFunc) {
	w.mu.Lock()
	w.held[ref] = cancel
	w.mu.Unlock()
}

// release stops renewing (and stops tracking) a lease.
func (w *Worker) release(ref LeaseRef) {
	w.mu.Lock()
	delete(w.held, ref)
	w.mu.Unlock()
}

// enter returns the state of a campaign the worker takes a lease from,
// counting the lease in until leave. Taking it first drops every other
// campaign with no lease in process, so a long-lived worker keeps pools and
// prefix snapshots only for the campaigns it is working on. A dropped
// campaign that leases again starts from empty state; its results are the
// same.
func (w *Worker) enter(campaign string) *campaignState {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, c := range w.campaigns {
		if id != campaign && c.active == 0 {
			delete(w.campaigns, id)
		}
	}
	c := w.campaigns[campaign]
	if c == nil {
		c = &campaignState{}
		w.campaigns[campaign] = c
	}
	c.active++
	return c
}

// leave ends one lease's hold on its campaign's state.
func (w *Worker) leave(c *campaignState) {
	w.mu.Lock()
	c.active--
	w.mu.Unlock()
}

// process runs one leased job end to end. The only non-nil return is a
// crash fault; every other failure becomes a deterministic job error or a
// silently abandoned lease (the coordinator's TTL recovers it).
func (w *Worker) process(ctx context.Context, lease *Lease) error {
	f := w.cfg.Faults
	if f.Crash(lease.Key, lease.Attempt) {
		w.logf("worker %s: CRASH fault on %s attempt %d", w.cfg.ID, lease.JobID, lease.Attempt)
		return ErrCrashed
	}
	camp := w.enter(lease.Campaign)
	defer w.leave(camp)
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	ref := LeaseRef{Campaign: lease.Campaign, Key: lease.Key}
	w.hold(ref, cancel)
	held := true
	defer func() {
		if held {
			w.release(ref)
		}
	}()
	if f.HeartbeatLoss(lease.Key, lease.Attempt) {
		// Stop renewing: the lease expires server-side mid-run, the job is
		// requeued elsewhere, and this worker's eventual delivery exercises
		// the idempotent re-ack path.
		w.release(ref)
		held = false
	}
	if d, ok := f.Slow(lease.Key, lease.Attempt); ok {
		if !sleepCtx(jobCtx, d) {
			return nil
		}
	}

	res := w.runLease(jobCtx, lease, camp)
	if res == nil {
		return nil // cancelled: shutdown or lease revoked; no ack
	}

	if d, ok := f.Hang(lease.Key, lease.Attempt); ok {
		// Finished but comatose: deliver only after the lease has long
		// expired.
		if held {
			w.release(ref)
			held = false
		}
		if !sleepCtx(ctx, d) {
			return nil
		}
	}
	w.deliver(ctx, lease, *res)
	return nil
}

// runLease rebuilds the job from the lease and executes it through its
// campaign's memo, forking the prefix the lease names; nil means the run
// was cancelled before completing. The worker's tracer is stamped with the
// lease's trace context so every event this run emits carries the campaign
// trace id, the job's span, and this worker's identity — the capture
// stitches against the coordinator's by span.
func (w *Worker) runLease(ctx context.Context, lease *Lease, camp *campaignState) *sweep.Result {
	job, err := JobFromLease(lease)
	if err != nil {
		return &sweep.Result{JobID: lease.JobID, Key: lease.Key, Group: lease.Group,
			Seed: lease.Seed, Error: err.Error()}
	}
	tracer := w.cfg.Tracer.With(lease.TraceID, lease.SpanID, w.cfg.ID)
	tracer.Emit(obs.Event{Type: obs.EventSweepJob, Phase: obs.PhaseStart,
		N: lease.Attempt, Detail: job.ID})
	res, canceled := camp.memo.Execute(ctx, job, lease.PrefixSec, tracer, w.cfg.Gauges, lease.Attempt)
	if canceled {
		return nil
	}
	return &res
}

// JobFromLease reconstructs the runnable job from a lease's canonical
// scenario payloads.
func JobFromLease(l *Lease) (sweep.Job, error) {
	sc, err := scenario.ParseBytes(l.Scenario)
	if err != nil {
		return sweep.Job{}, fmt.Errorf("fabric: lease %s scenario: %w", l.JobID, err)
	}
	job := sweep.Job{
		ID: l.JobID, Group: l.Group, Seed: l.Seed, Key: l.Key,
		Scenario: sc, Canonical: l.Scenario, PrefixKey: l.PrefixKey,
	}
	if len(l.Prefix) > 0 {
		psc, err := scenario.ParseBytes(l.Prefix)
		if err != nil {
			return sweep.Job{}, fmt.Errorf("fabric: lease %s prefix: %w", l.JobID, err)
		}
		job.Prefix, job.PrefixCanonical = psc, l.Prefix
	}
	return job, nil
}

// deliver acks the result, retrying until an ack lands or ctx dies. A
// drop fault consumes the first delivery; a dup fault sends the result
// twice — both converge because the coordinator acks idempotently.
func (w *Worker) deliver(ctx context.Context, lease *Lease, res sweep.Result) {
	dropped := w.cfg.Faults.DropResult(lease.Key, lease.Attempt)
	for try := 0; ; try++ {
		if try == 0 && dropped {
			w.logf("worker %s: DROP fault on %s, re-acking", w.cfg.ID, lease.JobID)
			continue // first delivery lost in transit
		}
		status, err := w.cfg.Client.SendResultSpanned(ctx, lease.Campaign, w.cfg.ID, lease.SpanID, res)
		if err == nil {
			if status == AckDuplicate {
				w.logf("worker %s: %s already completed elsewhere", w.cfg.ID, lease.JobID)
			}
			break
		}
		if ctx.Err() != nil || !sleepCtx(ctx, 20*time.Millisecond) {
			return
		}
	}
	if w.cfg.Faults.DupResult(lease.Key, lease.Attempt) {
		_, _ = w.cfg.Client.SendResultSpanned(ctx, lease.Campaign, w.cfg.ID, lease.SpanID, res) // duplicated delivery
	}
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}
