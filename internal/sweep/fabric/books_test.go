package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dynamicdf/internal/obs"
	"dynamicdf/internal/sweep"
)

// The coordinator's loops as they were before each campaign kept its slot
// books (leased slots, done count, lowest queued slot, queued fork jobs):
// every lease, heartbeat, ack and tick walked all slots of every campaign.
// They are the reference for the books.

// referencePick is pickLocked's scan from slot 0.
func referencePick(h *Hub, c *campaign, workerID string, now time.Time) int {
	fallback := -1
	for i := range c.slots {
		s := &c.slots[i]
		if s.state != jobQueued || now.Before(s.notBefore) {
			continue
		}
		if c.ledger.ForkSec(i) == 0 {
			if fallback < 0 {
				fallback = i
			}
			continue
		}
		owner, owned := c.prefixOwner[s.job.PrefixKey]
		switch {
		case owned && owner == workerID:
			return i
		case !owned, h.workerDeadLocked(owner, now):
			if fallback < 0 {
				fallback = i
			}
		}
	}
	return fallback
}

// referenceExpiring lists the jobs whose leases expireLocked's walk over
// every slot finds dead at now, in the order it expired them.
func referenceExpiring(h *Hub, now time.Time) []string {
	var ids []string
	for _, c := range h.campaigns {
		for i := range c.slots {
			if s := &c.slots[i]; s.state == jobLeased && now.After(s.expiry) {
				ids = append(ids, s.job.ID+" on "+s.worker)
			}
		}
	}
	return ids
}

// referenceBooks recounts a campaign's slots: the leased ones in slot
// order, the done count, and the queued jobs that fork a prefix.
func referenceBooks(c *campaign) (leased []int, done, queuedForks int) {
	for i := range c.slots {
		switch c.slots[i].state {
		case jobLeased:
			leased = append(leased, i)
		case jobDone:
			done++
		case jobQueued:
			if c.ledger.ForkSec(i) > 0 {
				queuedForks++
			}
		}
	}
	return leased, done, queuedForks
}

// checkBooks compares every campaign's books with referenceBooks and each
// worker's pick with referencePick. The caller holds h.mu.
func checkBooks(t *testing.T, h *Hub, workers []string, now time.Time, step int) {
	t.Helper()
	for _, c := range h.campaigns {
		leased, done, queuedForks := referenceBooks(c)
		if !slices.Equal(c.leased, leased) || c.ndone != done || c.queuedForks != queuedForks {
			t.Fatalf("step %d, campaign %s: books leased %v done %d queued forks %d, slots say %v %d %d",
				step, c.id, c.leased, c.ndone, c.queuedForks, leased, done, queuedForks)
		}
		for i := 0; i < c.next; i++ {
			if c.slots[i].state == jobQueued {
				t.Fatalf("step %d, campaign %s: slot %d is queued below next %d", step, c.id, i, c.next)
			}
		}
		for _, w := range workers {
			if got, want := h.pickLocked(c, w, now), referencePick(h, c, w, now); got != want {
				t.Fatalf("step %d, campaign %s: %s picks slot %d, reference %d", step, c.id, w, got, want)
			}
		}
	}
}

// TestHubBooksMatchReferenceLoops drives random Lease, Heartbeat, Ack and
// Tick sequences from three workers on a fake clock against two campaigns
// at once, a warm one with fork groups and singletons and a cold one,
// through expiries, backoff, requeues, quarantines, stale and duplicate
// acks and dead prefix owners. After every call the books must match the
// reference recount, every worker's pick the reference scan, each call's
// expiries the reference walk's in order, and every progress line's
// running count the leased slots.
func TestHubBooksMatchReferenceLoops(t *testing.T) {
	// The warm campaign's journal holds two of the three jobs of every
	// "solo" group, so those groups' last jobs run cold beside fork groups.
	warm := parseSpec(t, fmt.Sprintf(`{
	  "name": "books-warm",
	  "base": %s,
	  "axes": [
	    {"name": "rate", "values": [
	      {"label": "low", "patch": {"rate": {"mean": 3}}},
	      {"label": "solo", "patch": {"rate": {"mean": 8}}},
	      {"label": "high", "patch": {"rate": {"mean": 6}}}
	    ]},
	    {"name": "faults", "warm": true, "values": [
	      {"label": "off", "patch": {"control": {"faultFreeSec": 120}}},
	      {"label": "on", "patch": {"control": {"acquireFailProb": 0.5, "faultFreeSec": 120}}},
	      {"label": "more", "patch": {"control": {"acquireFailProb": 0.6, "faultFreeSec": 120}}}
	    ]}
	  ],
	  "warmStart": {"prefixSec": 120},
	  "seeds": [1, 2, 3]
	}`, testBase))
	warmJobs, err := warm.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cold := parseSpec(t, fmt.Sprintf(`{"name": "books-cold", "base": %s,
	  "axes": [{"name": "rate", "values": [
	    {"label": "a", "patch": {"rate": {"mean": 2}}}, {"label": "b", "patch": {"rate": {"mean": 4}}}]}],
	  "seeds": [1, 2, 3, 4, 5, 6, 7]}`, testBase))

	// seen counts the coordinator's events by type over all sequences.
	seen := map[string]int{}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			clock := newFakeClock()
			var sink bytes.Buffer
			tracer := obs.NewTracer(&sink)
			h := NewHub(Config{
				LeaseTTL:         time.Minute,
				MaxLeaseFailures: 3,
				BackoffBase:      10 * time.Second,
				BackoffMax:       40 * time.Second,
				Now:              clock.Now,
				Tracer:           tracer,
			})
			workers := []string{"A", "B", "C"}
			// progress checks each line's running count against the slots
			// of the campaign it reports, told apart by their job counts; it
			// runs under the hub's lock.
			progress := func(p sweep.Progress) {
				for _, c := range h.campaigns {
					if leased, _, _ := referenceBooks(c); len(c.slots) == p.Total && p.Running != len(leased) {
						t.Errorf("%s progress: running %d, %d slots leased", c.id, p.Running, len(leased))
					}
				}
			}
			journal, err := sweep.OpenJournal(filepath.Join(t.TempDir(), "warm.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			for _, j := range warmJobs {
				if strings.Contains(j.ID, "rate=solo/") && !strings.Contains(j.ID, "faults=more/") {
					if err := journal.Append(sweep.Result{JobID: j.ID, Key: j.Key, Theta: 1}); err != nil {
						t.Fatal(err)
					}
				}
			}
			var chans []<-chan struct {
				report *sweep.Report
				err    error
			}
			for _, spec := range []*sweep.Spec{warm, cold} {
				opts := sweep.RunOpts{OnProgress: progress}
				if spec == warm {
					opts.Journal = journal
				}
				chans = append(chans, startCampaign(t, h, spec, opts))
				for ready := false; !ready; time.Sleep(time.Millisecond) {
					h.mu.Lock()
					ready = len(h.campaigns) == len(chans)
					h.mu.Unlock()
				}
			}

			held := map[string][]*Lease{}
			var acked []*Lease
			// call runs one hub call and checks that the expiries it makes
			// come in the reference walk's order.
			call := func(step int, f func()) {
				h.mu.Lock()
				want := referenceExpiring(h, clock.Now())
				h.mu.Unlock()
				if err := tracer.Flush(); err != nil {
					t.Fatal(err)
				}
				sink.Reset()
				f()
				if err := tracer.Flush(); err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, line := range bytes.Split(bytes.TrimSpace(sink.Bytes()), []byte("\n")) {
					var ev obs.Event
					if len(line) == 0 || json.Unmarshal(line, &ev) != nil {
						continue
					}
					seen[ev.Type]++
					if ev.Type == obs.EventLeaseExpire {
						got = append(got, ev.Detail)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: expired %q, reference %q", step, got, want)
				}
			}
			for step := 0; step < 4000; step++ {
				h.mu.Lock()
				running := len(h.campaigns)
				if running > 0 {
					checkBooks(t, h, workers, clock.Now(), step)
				}
				h.mu.Unlock()
				if running == 0 {
					break
				}
				w := workers[r.Intn(len(workers))]
				switch op := r.Intn(100); {
				case op < 35:
					// A lease, half the time after a tick. When the lease
					// expires nothing first, its grant is the reference
					// scan's pick in the first campaign that has one.
					if r.Intn(2) == 0 {
						call(step, h.Tick)
					}
					h.mu.Lock()
					now, want := clock.Now(), ""
					if len(referenceExpiring(h, now)) > 0 {
						want = "?"
					}
					for _, c := range h.campaigns {
						if want != "" || c.closed || c.drained || c.canceled || c.ledger.Err() != nil {
							continue
						}
						if i := referencePick(h, c, w, now); i >= 0 {
							want = c.slots[i].job.ID
						}
					}
					h.mu.Unlock()
					var l *Lease
					call(step, func() { l = h.Lease(w) })
					got := ""
					if l != nil {
						got = l.JobID
						held[w] = append(held[w], l)
					}
					if want != "?" && got != want {
						t.Fatalf("step %d: %s leased %q, reference %q", step, w, got, want)
					}
				case op < 50:
					var refs []LeaseRef
					for _, l := range held[w] {
						refs = append(refs, LeaseRef{Campaign: l.Campaign, Key: l.Key})
					}
					var expired []LeaseRef
					call(step, func() { expired = h.Heartbeat(w, refs) })
					held[w] = slices.DeleteFunc(held[w], func(l *Lease) bool {
						return slices.Contains(expired, LeaseRef{Campaign: l.Campaign, Key: l.Key})
					})
				case op < 75:
					// An ack of a held lease, or a stale or repeated one.
					var l *Lease
					switch {
					case len(held[w]) > 0 && r.Intn(4) > 0:
						k := r.Intn(len(held[w]))
						l = held[w][k]
						held[w] = slices.Delete(held[w], k, k+1)
					case len(acked) > 0:
						l = acked[r.Intn(len(acked))]
					default:
						continue
					}
					acked = append(acked, l)
					call(step, func() { h.AckSpanned(l.Campaign, w, l.SpanID, sweep.Result{Key: l.Key, Theta: 1}) })
				case op < 85:
					call(step, h.Tick)
				default:
					clock.Advance(time.Duration(r.Intn(90)) * time.Second)
				}
			}
			for _, ch := range chans {
				if _, err := waitReport(t, ch); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	for _, typ := range []string{obs.EventLease, obs.EventLeaseExpire, obs.EventRequeue,
		obs.EventQuarantine, obs.EventResultAck, obs.EventResultDup} {
		if seen[typ] == 0 {
			t.Errorf("no %s event in any sequence", typ)
		}
	}
	t.Logf("events: %v", seen)
}
