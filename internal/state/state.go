// Package state defines the canonical, deterministic-serializable snapshot
// of a simulation engine — the externalized dataflow state that checkpoint,
// restore, and warm-start forking are built on. A Snapshot captures the
// complete mutable state of internal/sim's Engine between intervals: the
// clock, the VM fleet (including pending, unbilled instances), the alternate
// selection and routing, core placements, per-VM message queues, monitor
// estimators, fault counters, omega/gamma tallies, the recorded metric
// series and audit log, and an opaque scheduler-state blob.
//
// Encoding is versioned ("state/v1"): canonical JSON — struct fields in
// declaration order, map-free collections pre-sorted by their exporters —
// with a SHA-256 digest over the digest-free document embedded in the
// "digest" field. Encode/Decode round-trip byte-exactly (Go's float64 JSON
// encoding is shortest-round-trippable), so a restored engine continues
// bit-identically to an uninterrupted run.
package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/metrics"
	"dynamicdf/internal/monitor"
	"dynamicdf/internal/obs"
)

// Version names the snapshot encoding. Bump it whenever a field changes
// meaning; Decode rejects snapshots written by any other version.
const Version = "state/v1"

// CoreCell is one (PE, VM) core assignment.
type CoreCell struct {
	PE    int `json:"pe"`
	VM    int `json:"vm"`
	Cores int `json:"cores"`
}

// QueueCell is one (PE, VM) message buffer. VM -1 is the virtual unassigned
// queue messages buffer at while a PE has no cores.
type QueueCell struct {
	PE    int     `json:"pe"`
	VM    int     `json:"vm"`
	Queue float64 `json:"queue"`
}

// NetEntry is one VM pair's latency or bandwidth estimator (A < B), as
// older snapshots carry it.
type NetEntry struct {
	A int               `json:"a"`
	B int               `json:"b"`
	E monitor.EWMAState `json:"e"`
}

// Snapshot is the full engine state at an interval boundary. All collections
// are slices in a deterministic order (no maps), so the canonical JSON of a
// given engine state is unique.
type Snapshot struct {
	// Version is always the package Version; Encode fills it.
	Version string `json:"version"`
	// Digest is the hex SHA-256 of the snapshot's canonical JSON with this
	// field empty; Encode fills it and Decode verifies it.
	Digest string `json:"digest,omitempty"`

	// Identity guards: a snapshot only restores onto a config that agrees
	// on these.
	GraphPEs    int   `json:"graphPEs"`
	IntervalSec int64 `json:"intervalSec"`
	HorizonSec  int64 `json:"horizonSec"`
	Seed        int64 `json:"seed"`

	// ClockSec is the simulation clock (an interval boundary).
	ClockSec int64 `json:"clockSec"`
	// Deployed records that the scheduler's Deploy phase has run.
	Deployed bool `json:"deployed,omitempty"`
	// Stepped records that at least one interval has executed.
	Stepped bool `json:"stepped,omitempty"`

	// Selection and Routing are the live dataflow configuration.
	Selection []int `json:"selection"`
	Routing   []int `json:"routing,omitempty"`

	// Fleet is every VM ever acquired, in id order, including pending and
	// stopped instances (billing history depends on them).
	Fleet []cloud.VMRecord `json:"fleet,omitempty"`

	// Cores and Queues are the placement and buffer state, sorted by
	// (PE, VM).
	Cores  []CoreCell  `json:"cores,omitempty"`
	Queues []QueueCell `json:"queues,omitempty"`

	// Monitor estimator state, sorted by key.
	RateEst []monitor.RateEntry  `json:"rateEst,omitempty"`
	VMCPU   []monitor.VMCPUEntry `json:"vmCpu,omitempty"`
	// NetLat and NetBW are written only by older snapshots, whose engine
	// kept pairwise network estimators. They are decoded so that those
	// snapshots still verify and restore; a restore ignores them.
	NetLat []NetEntry `json:"netLat,omitempty"`
	NetBW  []NetEntry `json:"netBw,omitempty"`

	// Last-interval observations and period tallies.
	LastOmega float64 `json:"lastOmega,omitempty"`
	OmegaSum  float64 `json:"omegaSum,omitempty"`
	OmegaN    int     `json:"omegaN,omitempty"`
	// LastPEOut and LastPEExp are written only by older snapshots, whose
	// engine kept each PE's last observed and expected output rates. They
	// are decoded so that those snapshots still verify and restore; a
	// restore ignores them.
	LastPEOut   []float64 `json:"lastPeOut,omitempty"`
	LastPEExp   []float64 `json:"lastPeExp,omitempty"`
	LastPEIn    []float64 `json:"lastPeIn,omitempty"`
	LastLatency float64   `json:"lastLatency,omitempty"`

	// Fault and accounting counters.
	MigratedBytes   float64 `json:"migratedBytes,omitempty"`
	CrashCount      int     `json:"crashCount,omitempty"`
	Preemptions     int     `json:"preemptions,omitempty"`
	LostMessages    float64 `json:"lostMessages,omitempty"`
	AcquireAttempts int64   `json:"acquireAttempts,omitempty"`
	AcquireFailures int     `json:"acquireFailures,omitempty"`
	StaleProbes     int     `json:"staleProbes,omitempty"`
	CrashEvents     int     `json:"crashEvents,omitempty"`
	PreemptEvents   int     `json:"preemptEvents,omitempty"`
	PrevCostUSD     float64 `json:"prevCostUsd,omitempty"`
	Violations      int     `json:"violations,omitempty"`

	// Metrics is the per-interval series recorded so far; Audit is the
	// retained action log (empty unless auditing was on).
	Metrics []metrics.Point `json:"metrics,omitempty"`
	Audit   []obs.Event     `json:"audit,omitempty"`

	// SchedulerName labels the policy that was driving the run;
	// SchedulerState is its opaque checkpoint blob (nil for stateless
	// policies).
	SchedulerName  string          `json:"schedulerName,omitempty"`
	SchedulerState json.RawMessage `json:"schedulerState,omitempty"`

	// Per-tenant tallies and recorded series of a multi-tenant run, indexed
	// like the config's tenant list. The Tenant*Series slices are row-major
	// with stride = tenant count, one row per recorded metrics point. All
	// empty for single-tenant runs, so those snapshots keep the exact byte
	// encoding they had before tenants existed.
	TenantOmega       []float64 `json:"tenantOmega,omitempty"`
	TenantOmegaSum    []float64 `json:"tenantOmegaSum,omitempty"`
	TenantSpendUSD    []float64 `json:"tenantSpendUsd,omitempty"`
	TenantPrevCostUSD float64   `json:"tenantPrevCostUsd,omitempty"`
	TenantSeriesOmega []float64 `json:"tenantSeriesOmega,omitempty"`
	TenantSeriesGamma []float64 `json:"tenantSeriesGamma,omitempty"`
	TenantSeriesSpend []float64 `json:"tenantSeriesSpend,omitempty"`
}

// Encode serializes the snapshot as canonical JSON with the digest filled
// in. The input's Version and Digest fields are overwritten.
func Encode(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, errors.New("state: encode nil snapshot")
	}
	s.Version = Version
	s.Digest = ""
	body, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("state: encode: %w", err)
	}
	sum := sha256.Sum256(body)
	s.Digest = hex.EncodeToString(sum[:])
	out, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("state: encode: %w", err)
	}
	return out, nil
}

// Decode parses and verifies an encoded snapshot: the version must match,
// unknown fields are rejected, and the embedded digest must equal the
// SHA-256 of the re-canonicalized digest-free document. Any corruption —
// truncation, bit flips, injected fields, non-canonical rewrites — yields
// an error, never a panic.
func Decode(data []byte) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("state: decode: %w", err)
	}
	if dec.More() {
		return nil, errors.New("state: decode: trailing data after snapshot")
	}
	if s.Version != Version {
		return nil, fmt.Errorf("state: snapshot version %q, want %q", s.Version, Version)
	}
	if s.Digest == "" {
		return nil, errors.New("state: snapshot has no digest")
	}
	want := s.Digest
	s.Digest = ""
	body, err := json.Marshal(&s)
	if err != nil {
		return nil, fmt.Errorf("state: decode: %w", err)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("state: digest mismatch: snapshot says %s, content is %s", want, got)
	}
	// The digest covers what the input decodes to, so a rewrite that
	// decodes alike (a member name in another case, reordered members,
	// white space) passes it. The input must also be the encoding itself:
	// body with the digest member after the version, the first member.
	in := bytes.TrimSpace(data)
	head := len(`{"version":"` + Version + `"`)
	member := `,"digest":"` + want + `"`
	if len(in) != len(body)+len(member) || !bytes.Equal(in[:head], body[:head]) ||
		string(in[head:head+len(member)]) != member || !bytes.Equal(in[head+len(member):], body[head:]) {
		return nil, errors.New("state: decode: snapshot is not in canonical form")
	}
	s.Digest = want
	return &s, nil
}
