// Package fabric is the distributed sweep fabric: it scales the campaign
// engine in internal/sweep beyond one in-process pool by splitting it into
// a lease-based coordinator (Hub) and any number of workers that attach
// over HTTP (dfserve -worker).
//
// The coordinator hands out content-addressed sweep jobs under TTL leases
// renewed by worker heartbeats. A lease that expires without renewal sends
// its job back to the queue with capped exponential backoff; a job whose
// leases keep dying is quarantined as poison, its last error recorded in
// the campaign report. Results are acked idempotently by job key — the
// first delivery wins, duplicates are counted and dropped — and appended
// to the campaign journal exactly once, so the aggregated CSV is
// byte-identical to a single-pool run regardless of worker topology,
// crashes, stale deliveries, or retries.
//
// Warm-start fork groups schedule with prefix affinity: jobs sharing a
// checkpointed prefix lease to the worker that owns the group, and only
// move when that worker is presumed dead (no heartbeat within one TTL),
// in which case the new owner re-runs the prefix (or the job simply runs
// cold) — affinity is an optimization, never a correctness dependency.
//
// The package's own failure modes are tested the way the simulator's are:
// Faults is a deterministic, seeded harness injecting worker crashes,
// hangs, heartbeat loss, slow workers, and dropped or duplicated result
// deliveries, driven by an in-process multi-worker chaos test that asserts
// campaign output equals the fault-free single-pool baseline byte for
// byte.
package fabric

import (
	"encoding/json"
	"time"

	"dynamicdf/internal/obs"
)

// Config tunes the coordinator's lease state machine.
type Config struct {
	// LeaseTTL is how long a lease survives without a heartbeat
	// (default 15s). Workers are told to heartbeat at a third of it.
	LeaseTTL time.Duration
	// MaxLeaseFailures quarantines a job after this many dead leases
	// (default 3).
	MaxLeaseFailures int
	// BackoffBase is the requeue delay after the first dead lease,
	// doubling per failure (default 250ms).
	BackoffBase time.Duration
	// BackoffMax caps the requeue delay (default 10s).
	BackoffMax time.Duration
	// TickEvery bounds how stale lease expiry can go with no API traffic:
	// every running campaign scans for expired leases at least this often
	// (default LeaseTTL/4, floor 10ms).
	TickEvery time.Duration
	// Now supplies the coordinator clock (default time.Now); tests inject
	// a fake clock to drive expiry deterministically.
	Now func() time.Time
	// Tracer, when non-nil, receives lease/heartbeat/requeue/quarantine
	// events.
	Tracer *obs.Tracer
	// Metrics, when non-nil, exports the fabric_* gauge and counter set.
	Metrics *obs.FabricMetrics
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxLeaseFailures <= 0 {
		c.MaxLeaseFailures = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.TickEvery <= 0 {
		c.TickEvery = c.LeaseTTL / 4
		if c.TickEvery < 10*time.Millisecond {
			c.TickEvery = 10 * time.Millisecond
		}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// RegisterInfo is the coordinator's reply to a worker registration: the
// lease TTL the worker's jobs live under and the cadence it must
// heartbeat at to keep them.
type RegisterInfo struct {
	LeaseTTLMillis  int64 `json:"leaseTtlMillis"`
	HeartbeatMillis int64 `json:"heartbeatMillis"`
}

// LeaseTTL returns the lease TTL as a duration.
func (ri RegisterInfo) LeaseTTL() time.Duration {
	return time.Duration(ri.LeaseTTLMillis) * time.Millisecond
}

// HeartbeatEvery returns the heartbeat cadence as a duration.
func (ri RegisterInfo) HeartbeatEvery() time.Duration {
	return time.Duration(ri.HeartbeatMillis) * time.Millisecond
}

// Lease is one job granted to a worker: everything needed to rebuild and
// run the job remotely, plus the lease bookkeeping the worker echoes back
// in heartbeats and acks. Scenario and Prefix are canonical scenario JSON
// (the same bytes the job key hashes); a grant from Hub.Lease shares them
// with the campaign's job, so they are read-only.
type Lease struct {
	Campaign  string          `json:"campaign"`
	JobID     string          `json:"jobId"`
	Key       string          `json:"key"`
	Group     string          `json:"group"`
	Seed      int64           `json:"seed"`
	Attempt   int             `json:"attempt"`
	TTLMillis int64           `json:"ttlMillis"`
	Scenario  json.RawMessage `json:"scenario"`
	Prefix    json.RawMessage `json:"prefix,omitempty"`
	PrefixKey string          `json:"prefixKey,omitempty"`
	PrefixSec int64           `json:"prefixSec,omitempty"`
	// TraceID/SpanID are the campaign trace context the coordinator injects:
	// the worker stamps them (plus its own id) onto every event its tracer
	// emits while running the job, and echoes the span in its result
	// delivery, so dftrace can stitch coordinator and worker captures into
	// one causally ordered campaign timeline.
	TraceID string `json:"traceId,omitempty"`
	SpanID  string `json:"spanId,omitempty"`
}

// LeaseRef names one held lease in heartbeats: the campaign plus the
// job's content key.
type LeaseRef struct {
	Campaign string `json:"campaign"`
	Key      string `json:"key"`
}

// Ack statuses returned by the coordinator's result endpoint.
const (
	// AckAccepted: first delivery for the job; recorded and journaled.
	AckAccepted = "acked"
	// AckDuplicate: the job already completed; delivery ignored.
	AckDuplicate = "duplicate"
	// AckUnknown: no such campaign or job (finished campaign, foreign
	// key); delivery ignored.
	AckUnknown = "unknown"
)
