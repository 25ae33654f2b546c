package fabric

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/sweep"
)

// Hub is the fabric coordinator: it owns the lease state machine for every
// running campaign and implements sweep.CampaignRunner, so a sweep.Server
// configured with a Hub serves the same HTTP API while executing jobs on
// attached workers instead of an in-process pool.
type Hub struct {
	cfg Config

	mu        sync.Mutex
	workers   map[string]*workerInfo
	campaigns []*campaign // creation order; lease scans follow it
	byID      map[string]*campaign
}

// NewHub returns an idle coordinator.
func NewHub(cfg Config) *Hub {
	return &Hub{
		cfg:     cfg.withDefaults(),
		workers: map[string]*workerInfo{},
		byID:    map[string]*campaign{},
	}
}

type workerInfo struct {
	lastSeen time.Time
}

type jobState uint8

const (
	jobQueued jobState = iota
	jobLeased
	jobDone
)

// slot is one job's lease state.
type slot struct {
	job       sweep.Job
	state     jobState
	attempts  int // leases granted
	failures  int // leases that died without a result
	worker    string
	expiry    time.Time
	notBefore time.Time // backoff gate for requeued jobs
	lastErr   string
}

// campaign is one spec's jobs moving through the lease state machine. Its
// ledger keeps the books: journal, fork groups, counters and report.
type campaign struct {
	id     string
	slots  []slot
	byKey  map[string]int
	ledger *sweep.Ledger

	// The slots by state, kept by setState so that no event walks every
	// slot: leased holds the leased slots in slot order, ndone counts the
	// done ones, next is the lowest slot that may be queued, and
	// queuedForks counts the queued slots that fork a prefix.
	leased      []int
	ndone       int
	next        int
	queuedForks int

	// prefixOwner maps a warm-start prefix key to the worker owning the
	// fork group.
	prefixOwner map[string]string

	drained  bool
	canceled bool
	closed   bool
	done     chan struct{}
}

// RunCampaign implements sweep.CampaignRunner: it registers the spec's
// expanded jobs with the coordinator and blocks until attached workers
// complete them (or ctx is cancelled / opts.Drain closes). Journaled
// completions are served as cache hits without leasing; results ack into
// the journal exactly once. The returned report is aggregated in grid
// order, so its CSV is byte-identical to a single-pool run of the same
// spec.
func (h *Hub) RunCampaign(ctx context.Context, spec *sweep.Spec, jobs []sweep.Job, opts sweep.RunOpts) (*sweep.Report, error) {
	id, err := spec.ID()
	if err != nil {
		return nil, err
	}
	c := &campaign{
		id:          id,
		slots:       make([]slot, len(jobs)),
		byKey:       make(map[string]int, len(jobs)),
		ledger:      sweep.NewLedger(spec, jobs, opts),
		prefixOwner: map[string]string{},
		done:        make(chan struct{}),
	}
	for i := range jobs {
		c.slots[i] = slot{job: jobs[i], state: jobDone}
		c.byKey[jobs[i].Key] = i
	}
	c.ndone, c.next = len(jobs), len(jobs)
	for _, i := range c.ledger.Pending() {
		c.setState(i, jobQueued)
	}

	h.mu.Lock()
	if _, dup := h.byID[id]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("fabric: campaign %s already running", id)
	}
	h.campaigns = append(h.campaigns, c)
	h.byID[id] = c
	c.emitProgressLocked(h)
	c.maybeFinishLocked()
	h.mu.Unlock()

	ticker := time.NewTicker(h.cfg.TickEvery)
	defer ticker.Stop()
	defer h.remove(c)

	ctxDone := ctx.Done()
	drain := opts.Drain
	for {
		select {
		case <-c.done:
			h.mu.Lock()
			report, err := c.ledger.Report(ctx)
			h.mu.Unlock()
			return report, err
		case <-ctxDone:
			ctxDone = nil
			h.mu.Lock()
			c.canceled = true
			c.maybeFinishLocked()
			h.mu.Unlock()
		case <-drain:
			drain = nil
			h.mu.Lock()
			c.drained = true
			c.maybeFinishLocked()
			h.mu.Unlock()
		case <-ticker.C:
			h.Tick()
		}
	}
}

// Tick scans every campaign for expired leases. RunCampaign drives it on a
// timer; API calls (lease, heartbeat, ack) run the same scan inline, so
// ticking only matters when no traffic arrives.
func (h *Hub) Tick() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.expireLocked(h.cfg.Now())
}

// remove detaches a finished campaign; stale acks and heartbeats for it
// report unknown/expired from then on.
func (h *Hub) remove(c *campaign) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.byID, c.id)
	for i := range h.campaigns {
		if h.campaigns[i] == c {
			h.campaigns = append(h.campaigns[:i], h.campaigns[i+1:]...)
			break
		}
	}
}

// Register records a worker. Workers re-register freely (e.g. after a
// crash under the same id); registration also counts as liveness.
func (h *Hub) Register(workerID string) RegisterInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
	if _, known := h.workers[workerID]; !known {
		h.emit(obs.Event{Type: obs.EventWorkerJoin, Detail: workerID})
	}
	h.touchLocked(workerID, now)
	return RegisterInfo{
		LeaseTTLMillis:  h.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis: (h.cfg.LeaseTTL / 3).Milliseconds(),
	}
}

// Lease grants the worker its next job, or returns nil when nothing is
// leasable right now (everything done, leased, backing off, or pinned to
// another live worker's fork group).
func (h *Hub) Lease(workerID string) *Lease {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
	h.touchLocked(workerID, now)
	h.expireLocked(now)
	for _, c := range h.campaigns {
		if c.closed || c.drained || c.canceled || c.ledger.Err() != nil {
			continue
		}
		i := h.pickLocked(c, workerID, now)
		if i < 0 {
			continue
		}
		s := &c.slots[i]
		c.setState(i, jobLeased)
		s.attempts++
		s.worker = workerID
		s.expiry = now.Add(h.cfg.LeaseTTL)
		grant := &Lease{
			Campaign:  c.id,
			JobID:     s.job.ID,
			Key:       s.job.Key,
			Group:     s.job.Group,
			Seed:      s.job.Seed,
			Attempt:   s.attempts,
			TTLMillis: h.cfg.LeaseTTL.Milliseconds(),
			Scenario:  s.job.Canonical,
		}
		if sec := c.ledger.ForkSec(i); sec > 0 {
			c.prefixOwner[s.job.PrefixKey] = workerID
			grant.Prefix = s.job.PrefixCanonical
			grant.PrefixKey = s.job.PrefixKey
			grant.PrefixSec = sec
		}
		grant.TraceID = c.id
		grant.SpanID = spanID(s.job.Key, s.attempts)
		h.emit(obs.Event{Type: obs.EventLease, N: s.attempts, Detail: s.job.ID + " -> " + workerID,
			Trace: c.id, Span: grant.SpanID, Worker: workerID})
		if m := h.cfg.Metrics; m != nil {
			m.LeasesTotal.Inc()
			m.LeasesActive.Add(1)
		}
		c.emitProgressLocked(h)
		return grant
	}
	return nil
}

// pickLocked selects the worker's next slot in deterministic grid order,
// honoring prefix affinity: first the worker's own fork-group jobs, then
// unpinned jobs (claiming their group), then groups whose owner is
// presumed dead. Jobs pinned to another live worker wait — affinity beats
// stealing, because moving the job means re-simulating the prefix. The
// scan starts at the lowest slot that may be queued, and with no fork-group
// job queued it takes the first slot whose backoff has passed.
func (h *Hub) pickLocked(c *campaign, workerID string, now time.Time) int {
	fallback := -1
	for i := c.next; i < len(c.slots); i++ {
		s := &c.slots[i]
		if s.state != jobQueued || now.Before(s.notBefore) {
			continue
		}
		if c.ledger.ForkSec(i) == 0 {
			if c.queuedForks == 0 {
				return i
			}
			if fallback < 0 {
				fallback = i
			}
			continue
		}
		owner, owned := c.prefixOwner[s.job.PrefixKey]
		switch {
		case owned && owner == workerID:
			return i // own group: take it immediately
		case !owned, h.workerDeadLocked(owner, now):
			if fallback < 0 {
				fallback = i
			}
		}
	}
	return fallback
}

// Heartbeat renews the worker's held leases and returns the refs it no
// longer holds (expired, re-leased elsewhere, completed, or from a
// finished campaign) so the worker can abandon those runs.
func (h *Hub) Heartbeat(workerID string, held []LeaseRef) (expired []LeaseRef) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
	h.touchLocked(workerID, now)
	h.expireLocked(now)
	if m := h.cfg.Metrics; m != nil {
		m.Heartbeats.Inc()
	}
	h.emit(obs.Event{Type: obs.EventHeartbeat, N: len(held), Detail: workerID})
	for _, ref := range held {
		c := h.byID[ref.Campaign]
		if c == nil {
			expired = append(expired, ref)
			continue
		}
		i, ok := c.byKey[ref.Key]
		if !ok {
			expired = append(expired, ref)
			continue
		}
		s := &c.slots[i]
		if s.state == jobLeased && s.worker == workerID && !c.canceled {
			s.expiry = now.Add(h.cfg.LeaseTTL)
			continue
		}
		expired = append(expired, ref)
	}
	return expired
}

// AckSpanned records one job result idempotently: the first delivery for a
// key wins (and is journaled); repeats — from retries, duplicated
// deliveries, or stale workers whose lease already expired — are counted
// and dropped. Results are deterministic per key, so any delivery carries
// the same payload and accepting the first preserves exactly-once
// aggregation. The delivering worker's identity and the lease's span id
// (both optional) let the coordinator's result-ack event close the same
// span the worker's job-run events opened.
func (h *Hub) AckSpanned(campaignID, worker, span string, res sweep.Result) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.cfg.Now()
	h.expireLocked(now)
	c := h.byID[campaignID]
	if c == nil {
		return AckUnknown
	}
	i, ok := c.byKey[res.Key]
	if !ok {
		return AckUnknown
	}
	s := &c.slots[i]
	if span == "" {
		span = spanID(s.job.Key, s.attempts)
	}
	if s.state == jobDone {
		if m := h.cfg.Metrics; m != nil {
			m.DupResults.Inc()
		}
		h.emit(obs.Event{Type: obs.EventResultDup, Detail: s.job.ID,
			Trace: c.id, Span: span, Worker: worker})
		return AckDuplicate
	}
	// The ledger stamps the slot's identity on the result, not the wire's.
	if err := c.ledger.Complete(i, res); err != nil {
		c.maybeFinishLocked()
		return AckUnknown
	}
	if s.state == jobLeased {
		if m := h.cfg.Metrics; m != nil {
			m.LeasesActive.Add(-1)
		}
	}
	if worker == "" {
		worker = s.worker
	}
	h.emit(obs.Event{Type: obs.EventResultAck, Detail: s.job.ID + " <- " + worker,
		Trace: c.id, Span: span, Worker: worker})
	c.setState(i, jobDone)
	s.worker = ""
	c.emitProgressLocked(h)
	c.maybeFinishLocked()
	return AckAccepted
}

// expireLocked advances the lease state machine to now: dead leases
// requeue with exponential backoff or quarantine their job once the
// failure cap is reached. It visits only the leased slots, in slot order.
func (h *Hub) expireLocked(now time.Time) {
	for _, c := range h.campaigns {
		dirty := false
		for k := 0; k < len(c.leased); {
			i := c.leased[k]
			s := &c.slots[i]
			if !now.After(s.expiry) {
				k++
				continue
			}
			// Either way the slot leaves c.leased, and slot k+1 moves to k.
			dirty = true
			s.failures++
			s.lastErr = fmt.Sprintf("lease %d expired on worker %s", s.attempts, s.worker)
			span := spanID(s.job.Key, s.attempts)
			h.emit(obs.Event{Type: obs.EventLeaseExpire, N: s.failures,
				Detail: s.job.ID + " on " + s.worker,
				Trace:  c.id, Span: span, Worker: s.worker})
			if m := h.cfg.Metrics; m != nil {
				m.LeaseExpiries.Inc()
				m.LeasesActive.Add(-1)
			}
			if s.failures >= h.cfg.MaxLeaseFailures {
				// Poison: retire the job with its history as the error.
				// Deliberately NOT journaled — lease failures are
				// operational, not deterministic, so a resumed campaign
				// retries the job.
				c.setState(i, jobDone)
				c.ledger.Quarantine(i, fmt.Sprintf("quarantined after %d failed leases: %s", s.failures, s.lastErr))
				h.emit(obs.Event{Type: obs.EventQuarantine, N: s.failures, Detail: s.job.ID,
					Trace: c.id, Span: span})
				if m := h.cfg.Metrics; m != nil {
					m.Quarantined.Inc()
				}
			} else {
				backoff := h.cfg.BackoffBase << (s.failures - 1)
				if backoff > h.cfg.BackoffMax || backoff <= 0 {
					backoff = h.cfg.BackoffMax
				}
				c.setState(i, jobQueued)
				s.worker = ""
				s.notBefore = now.Add(backoff)
				c.ledger.Requeued()
				h.emit(obs.Event{Type: obs.EventRequeue, N: s.failures, Detail: s.job.ID,
					Trace: c.id, Span: span})
				if m := h.cfg.Metrics; m != nil {
					m.Requeues.Inc()
				}
			}
		}
		if dirty {
			c.emitProgressLocked(h)
			c.maybeFinishLocked()
		}
	}
	if m := h.cfg.Metrics; m != nil {
		m.WorkersLive.Set(float64(h.liveLocked(now)))
	}
}

// liveLocked counts the workers seen within one lease TTL.
func (h *Hub) liveLocked(now time.Time) int {
	live := 0
	for _, w := range h.workers {
		if !now.After(w.lastSeen.Add(h.cfg.LeaseTTL)) {
			live++
		}
	}
	return live
}

// touchLocked records worker liveness.
func (h *Hub) touchLocked(workerID string, now time.Time) {
	w := h.workers[workerID]
	if w == nil {
		w = &workerInfo{}
		h.workers[workerID] = w
	}
	w.lastSeen = now
}

// workerDeadLocked presumes a worker dead when it has not been seen within
// one lease TTL.
func (h *Hub) workerDeadLocked(workerID string, now time.Time) bool {
	w := h.workers[workerID]
	return w == nil || now.After(w.lastSeen.Add(h.cfg.LeaseTTL))
}

// setState moves slot i to state to and keeps the campaign's slot
// bookkeeping current.
func (c *campaign) setState(i int, to jobState) {
	from := c.slots[i].state
	c.slots[i].state = to
	fork := c.ledger.ForkSec(i) > 0
	switch from {
	case jobQueued:
		if fork {
			c.queuedForks--
		}
	case jobLeased:
		k, _ := slices.BinarySearch(c.leased, i)
		c.leased = slices.Delete(c.leased, k, k+1)
	case jobDone:
		c.ndone--
	}
	switch to {
	case jobQueued:
		if fork {
			c.queuedForks++
		}
		c.next = min(c.next, i)
	case jobLeased:
		k, _ := slices.BinarySearch(c.leased, i)
		c.leased = slices.Insert(c.leased, k, i)
	case jobDone:
		c.ndone++
	}
	for c.next < len(c.slots) && c.slots[c.next].state != jobQueued {
		c.next++
	}
}

// maybeFinishLocked closes the campaign when every slot is terminal, or —
// after drain/cancel/journal failure — when no leases remain in flight
// (drain lets in-flight jobs finish; cancel abandons them immediately).
func (c *campaign) maybeFinishLocked() {
	if c.closed {
		return
	}
	complete := c.ndone == len(c.slots)
	aborted := c.canceled || c.ledger.Err() != nil
	drainedOut := c.drained && len(c.leased) == 0
	if complete || aborted || drainedOut {
		c.closed = true
		close(c.done)
	}
}

// emitProgressLocked publishes a progress snapshot. The callback runs
// under the hub lock and must not call back into the hub (the sweep
// server's sink only touches its own state).
func (c *campaign) emitProgressLocked(h *Hub) {
	c.ledger.Emit(len(c.leased), h.liveLocked(h.cfg.Now()))
}

// emit forwards a coordinator event to the tracer (nil-safe).
func (h *Hub) emit(ev obs.Event) {
	h.cfg.Tracer.Emit(ev)
}

// spanID names one job attempt within a campaign trace: a short prefix of
// the job's content key plus the attempt ordinal. Keys are sha256 hex, so
// twelve characters stay unique within any real campaign.
func spanID(key string, attempt int) string {
	if len(key) > 12 {
		key = key[:12]
	}
	return fmt.Sprintf("%s#%d", key, attempt)
}
