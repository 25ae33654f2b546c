package fabric

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dynamicdf/internal/sweep"
)

// testBase is a small 2-PE scenario that runs in milliseconds.
const testBase = `{
  "graph": {
    "pes": [
      {"name": "src", "alternates": [{"name": "e", "value": 1, "cost": 0.2, "selectivity": 1}]},
      {"name": "work", "alternates": [
        {"name": "full", "value": 1.0, "cost": 1.0, "selectivity": 1},
        {"name": "lite", "value": 0.8, "cost": 0.5, "selectivity": 1}
      ]}
    ],
    "edges": [["src", "work"]]
  },
  "rate": {"kind": "constant", "mean": 5},
  "horizonHours": 0.1,
  "seed": 1
}`

// fakeClock drives the coordinator's lease state machine deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func parseSpec(t *testing.T, doc string) *sweep.Spec {
	t.Helper()
	s, err := sweep.ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// singleJobSpec expands to exactly one job.
func singleJobSpec(t *testing.T) *sweep.Spec {
	return parseSpec(t, fmt.Sprintf(`{"name": "one", "base": %s, "seeds": [1]}`, testBase))
}

// warmGroupSpec expands to one warm-start fork group of two jobs (or two
// groups when two seeds are given).
func warmGroupSpec(t *testing.T, seeds string) *sweep.Spec {
	return parseSpec(t, fmt.Sprintf(`{
	  "name": "warm",
	  "base": %s,
	  "axes": [{"name": "faults", "warm": true, "values": [
	    {"label": "off", "patch": {"control": {"faultFreeSec": 120}}},
	    {"label": "on",  "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}}
	  ]}],
	  "warmStart": {"prefixSec": 120},
	  "seeds": [%s]
	}`, testBase, seeds))
}

// startCampaign expands spec, launches RunCampaign in the background and
// returns its outcome channel.
func startCampaign(t *testing.T, h *Hub, spec *sweep.Spec, opts sweep.RunOpts) <-chan struct {
	report *sweep.Report
	err    error
} {
	t.Helper()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan struct {
		report *sweep.Report
		err    error
	}, 1)
	go func() {
		rep, err := h.RunCampaign(context.Background(), spec, jobs, opts)
		out <- struct {
			report *sweep.Report
			err    error
		}{rep, err}
	}()
	// Wait for the campaign to become leasable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		ready := len(h.campaigns) > 0
		h.mu.Unlock()
		if ready || time.Now().After(deadline) {
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

func waitReport(t *testing.T, ch <-chan struct {
	report *sweep.Report
	err    error
}) (*sweep.Report, error) {
	t.Helper()
	select {
	case r := <-ch:
		return r.report, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not finish")
		return nil, nil
	}
}

func testHub(clock *fakeClock, maxFailures int) *Hub {
	return NewHub(Config{
		LeaseTTL:         time.Minute,
		MaxLeaseFailures: maxFailures,
		BackoffBase:      10 * time.Second,
		BackoffMax:       40 * time.Second,
		Now:              clock.Now,
	})
}

// TestLeaseExpiryRequeuesExactlyOnce: a lease that dies sends its job back
// to the queue exactly once, gated by backoff, and the original holder
// learns via heartbeat that the lease is gone.
func TestLeaseExpiryRequeuesExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	h := testHub(clock, 3)
	ch := startCampaign(t, h, singleJobSpec(t), sweep.RunOpts{})

	h.Register("A")
	h.Register("B")
	lease := h.Lease("A")
	if lease == nil {
		t.Fatal("worker A got no lease")
	}
	if lease.Attempt != 1 {
		t.Fatalf("first lease attempt = %d, want 1", lease.Attempt)
	}
	if l := h.Lease("B"); l != nil {
		t.Fatalf("job double-leased while A holds it: %+v", l)
	}

	// TTL elapses without a heartbeat: exactly one requeue, backoff-gated.
	clock.Advance(61 * time.Second)
	h.Tick()
	h.Tick() // a second scan must not double-count the expiry
	if l := h.Lease("B"); l != nil {
		t.Fatalf("requeued job leased before backoff elapsed: %+v", l)
	}
	clock.Advance(10 * time.Second)
	lease2 := h.Lease("B")
	if lease2 == nil {
		t.Fatal("job not leasable after backoff")
	}
	if lease2.Attempt != 2 {
		t.Fatalf("re-lease attempt = %d, want 2", lease2.Attempt)
	}

	// The original holder's heartbeat reports the lease revoked.
	ref := LeaseRef{Campaign: lease.Campaign, Key: lease.Key}
	expired := h.Heartbeat("A", []LeaseRef{ref})
	if len(expired) != 1 || expired[0] != ref {
		t.Fatalf("heartbeat from the dead leaseholder returned %v, want [%v]", expired, ref)
	}

	if st := h.AckSpanned(lease2.Campaign, "", "", sweep.Result{Key: lease2.Key, Theta: 1}); st != AckAccepted {
		t.Fatalf("ack status %q, want %q", st, AckAccepted)
	}
	rep, err := waitReport(t, ch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeues != 1 || rep.Executed != 1 || rep.Errors != 0 || rep.Quarantined != 0 {
		t.Fatalf("report requeues=%d executed=%d errors=%d quarantined=%d, want 1/1/0/0",
			rep.Requeues, rep.Executed, rep.Errors, rep.Quarantined)
	}
}

// TestHeartbeatRenewalPreventsExpiry: a lease renewed within its TTL never
// expires, across arbitrarily many TTL multiples.
func TestHeartbeatRenewalPreventsExpiry(t *testing.T) {
	clock := newFakeClock()
	h := testHub(clock, 3)
	ch := startCampaign(t, h, singleJobSpec(t), sweep.RunOpts{})

	h.Register("A")
	h.Register("B")
	lease := h.Lease("A")
	if lease == nil {
		t.Fatal("no lease")
	}
	ref := LeaseRef{Campaign: lease.Campaign, Key: lease.Key}
	for i := 0; i < 5; i++ {
		clock.Advance(45 * time.Second) // under the 60s TTL each time
		if expired := h.Heartbeat("A", []LeaseRef{ref}); len(expired) != 0 {
			t.Fatalf("heartbeat %d revoked a live lease: %v", i, expired)
		}
		if l := h.Lease("B"); l != nil {
			t.Fatalf("renewed lease lost its job to worker B: %+v", l)
		}
	}
	if st := h.AckSpanned(lease.Campaign, "", "", sweep.Result{Key: lease.Key, Theta: 2}); st != AckAccepted {
		t.Fatalf("ack status %q", st)
	}
	rep, err := waitReport(t, ch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requeues != 0 || rep.Executed != 1 {
		t.Fatalf("report requeues=%d executed=%d, want 0/1", rep.Requeues, rep.Executed)
	}
}

// TestDuplicateAckIdempotent: repeated deliveries of the same result are
// dropped, and the journal records the completion exactly once. The
// campaign's second job is acked only after the repeats, so the campaign
// stays open while they arrive: the hub detaches a finished campaign, after
// which a late delivery reads "unknown", not "duplicate".
func TestDuplicateAckIdempotent(t *testing.T) {
	clock := newFakeClock()
	h := testHub(clock, 3)
	journal, err := sweep.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	spec := parseSpec(t, fmt.Sprintf(`{"name": "two", "base": %s, "seeds": [1, 2]}`, testBase))
	ch := startCampaign(t, h, spec, sweep.RunOpts{Journal: journal})

	h.Register("A")
	lease := h.Lease("A")
	if lease == nil {
		t.Fatal("no lease")
	}
	res := sweep.Result{Key: lease.Key, Theta: 3}
	if st := h.AckSpanned(lease.Campaign, "", "", res); st != AckAccepted {
		t.Fatalf("first ack %q, want %q", st, AckAccepted)
	}
	for i := 0; i < 3; i++ {
		if st := h.AckSpanned(lease.Campaign, "", "", res); st != AckDuplicate {
			t.Fatalf("repeat ack %d returned %q, want %q", i, st, AckDuplicate)
		}
	}
	if journal.Len() != 1 {
		t.Fatalf("journal has %d entries after duplicate acks, want 1", journal.Len())
	}
	last := h.Lease("A")
	if last == nil {
		t.Fatal("no lease for the second job")
	}
	if st := h.AckSpanned(last.Campaign, "", "", sweep.Result{Key: last.Key, Theta: 3}); st != AckAccepted {
		t.Fatalf("second job's ack %q, want %q", st, AckAccepted)
	}
	rep, err := waitReport(t, ch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 2 || rep.Total != 2 {
		t.Fatalf("report executed=%d total=%d, want 2/2", rep.Executed, rep.Total)
	}
}

// TestPoisonJobQuarantine: a job whose leases keep dying is retired after
// the failure cap with its history in the report — and stays out of the
// journal so a resumed campaign retries it.
func TestPoisonJobQuarantine(t *testing.T) {
	clock := newFakeClock()
	h := testHub(clock, 2)
	journal, err := sweep.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	ch := startCampaign(t, h, singleJobSpec(t), sweep.RunOpts{Journal: journal})

	h.Register("A")
	for attempt := 1; attempt <= 2; attempt++ {
		lease := h.Lease("A")
		if lease == nil {
			t.Fatalf("attempt %d: no lease", attempt)
		}
		if lease.Attempt != attempt {
			t.Fatalf("lease attempt = %d, want %d", lease.Attempt, attempt)
		}
		clock.Advance(61 * time.Second) // die without heartbeat
		h.Tick()
		clock.Advance(41 * time.Second) // past max backoff
	}
	rep, err := waitReport(t, ch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || rep.Errors != 1 || rep.Requeues != 1 {
		t.Fatalf("report quarantined=%d errors=%d requeues=%d, want 1/1/1",
			rep.Quarantined, rep.Errors, rep.Requeues)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("report has %d results, want 1", len(rep.Results))
	}
	if msg := rep.Results[0].Error; !strings.Contains(msg, "quarantined after 2 failed leases") {
		t.Fatalf("quarantine error not recorded in the report: %q", msg)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Failed != 1 {
		t.Fatalf("aggregated row did not count the quarantined replica as failed: %+v", rep.Rows)
	}
	if journal.Len() != 0 {
		t.Fatal("quarantined job leaked into the journal; a resume would never retry it")
	}
}

// TestPrefixAffinityPartitionsGroups: jobs sharing a warm-start prefix
// lease to the worker that owns the group.
func TestPrefixAffinityPartitionsGroups(t *testing.T) {
	clock := newFakeClock()
	h := testHub(clock, 3)
	ch := startCampaign(t, h, warmGroupSpec(t, "1, 2"), sweep.RunOpts{})

	h.Register("A")
	h.Register("B")
	got := map[string][]int64{} // worker -> seeds of leased jobs
	var leases []*Lease
	for i := 0; i < 2; i++ {
		for _, w := range []string{"A", "B"} {
			l := h.Lease(w)
			if l == nil {
				t.Fatalf("worker %s starved on round %d", w, i)
			}
			if l.PrefixKey == "" || l.PrefixSec != 120 || len(l.Prefix) == 0 {
				t.Fatalf("eligible fork-group lease lacks prefix payload: %+v", l)
			}
			got[w] = append(got[w], l.Seed)
			leases = append(leases, l)
		}
	}
	for w, seeds := range got {
		if seeds[0] != seeds[1] {
			t.Fatalf("worker %s crossed fork groups: leased seeds %v (want both jobs of one group)", w, seeds)
		}
	}
	if got["A"][0] == got["B"][0] {
		t.Fatalf("both workers leased the same fork group: %v", got)
	}
	for _, l := range leases {
		h.AckSpanned(l.Campaign, "", "", sweep.Result{Key: l.Key, Theta: 1, Forked: true})
	}
	rep, err := waitReport(t, ch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ForkHits != 4 {
		t.Fatalf("forkHits = %d, want 4", rep.ForkHits)
	}
}

// TestLeaseCarriesExpandedBytes: a fork-group lease carries the canonical
// scenario and prefix bytes the expansion computed, not a re-encoding.
func TestLeaseCarriesExpandedBytes(t *testing.T) {
	h := testHub(newFakeClock(), 3)
	spec := warmGroupSpec(t, "1")
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]sweep.Job{}
	for _, j := range jobs {
		byKey[j.Key] = j
	}
	ch := startCampaign(t, h, spec, sweep.RunOpts{})
	h.Register("A")
	for range jobs {
		l := h.Lease("A")
		if l == nil {
			t.Fatal("worker A starved")
		}
		j := byKey[l.Key]
		if len(j.PrefixCanonical) == 0 || !bytes.Equal(l.Prefix, j.PrefixCanonical) {
			t.Fatalf("lease %s prefix\n%s\nexpansion's\n%s", l.JobID, l.Prefix, j.PrefixCanonical)
		}
		if !bytes.Equal(l.Scenario, j.Canonical) {
			t.Fatalf("lease %s scenario\n%s\nexpansion's\n%s", l.JobID, l.Scenario, j.Canonical)
		}
		h.AckSpanned(l.Campaign, "", "", sweep.Result{Key: l.Key, Theta: 1, Forked: true})
	}
	if _, err := waitReport(t, ch); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixAffinityFallsBackWhenOwnerDies: a fork group pinned to a live
// worker waits; once the owner is presumed dead its jobs move.
func TestPrefixAffinityFallsBackWhenOwnerDies(t *testing.T) {
	clock := newFakeClock()
	h := testHub(clock, 5)
	ch := startCampaign(t, h, warmGroupSpec(t, "1"), sweep.RunOpts{})

	h.Register("A")
	h.Register("B")
	first := h.Lease("A")
	if first == nil {
		t.Fatal("worker A got no lease")
	}
	// The group is pinned to live worker A: B must wait, not steal.
	if l := h.Lease("B"); l != nil {
		t.Fatalf("worker B stole a fork-group job pinned to live owner A: %+v", l)
	}
	// A dies silently. After one TTL it is presumed dead and the group
	// moves to B — first the still-queued job, then (after backoff) the
	// expired one.
	clock.Advance(61 * time.Second)
	second := h.Lease("B")
	if second == nil {
		t.Fatal("worker B did not inherit the dead owner's fork group")
	}
	clock.Advance(40 * time.Second)
	third := h.Lease("B")
	if third == nil {
		t.Fatal("worker B did not pick up the expired job after backoff")
	}
	if third.Key != first.Key || third.Attempt != 2 {
		t.Fatalf("expected the expired job re-leased to B (attempt 2), got %+v", third)
	}
	h.AckSpanned(second.Campaign, "", "", sweep.Result{Key: second.Key, Theta: 1})
	h.AckSpanned(third.Campaign, "", "", sweep.Result{Key: third.Key, Theta: 1})
	rep, err := waitReport(t, ch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 2 || rep.Requeues != 1 {
		t.Fatalf("report executed=%d requeues=%d, want 2/1", rep.Executed, rep.Requeues)
	}
}
