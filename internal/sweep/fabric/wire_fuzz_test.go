package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynamicdf/internal/sweep"
)

// FuzzResultsWire posts arbitrary NDJSON to the coordinator's results route.
// Each input runs against a fresh hub whose campaign has one job leased; the
// placeholders $C and $K in the input become that campaign's id and the
// leased job's key. The route must never panic, must answer every non-blank
// line with exactly one ack, and must ack the leased job first-wins: the
// first line delivering it is "acked" and every later one "duplicate". Any
// other line is "unknown".
//
// The campaign has a second job that is never delivered, so it stays open
// for the whole input. With a single job the first ack would finish the
// campaign, and a later delivery would read "duplicate" or "unknown"
// depending on when the hub detached it.
func FuzzResultsWire(f *testing.F) {
	spec := wireSpec(f)
	jobs, err := spec.Expand()
	if err != nil {
		f.Fatal(err)
	}
	const valid = `{"campaign": "$C", "worker": "w", "result": {"jobId": "j", "key": "$K", "omega": 0.9}}`
	for _, seed := range []string{
		valid,
		valid + "\n" + valid + "\n",
		`{"campaign": "$C", "result": {"key": "no-such-key"}}`,
		`{"campaign": "no-such-campaign", "result": {"key": "$K"}}`,
		"\n  \n" + valid + "\r\n\t\n\n",
		`{"campaign": "$C", "result": {"key": "$K"`,
		"[1, 2]\n\"$K\"\n42\nnull\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, lease, stop := leaseOne(t, spec)
		defer stop()
		body := bytes.ReplaceAll(data, []byte("$C"), []byte(lease.Campaign))
		body = bytes.ReplaceAll(body, []byte("$K"), []byte(lease.Key))
		for _, j := range jobs {
			if j.Key != lease.Key && bytes.Contains(body, []byte(j.Key)) {
				t.Skip("input delivers the second job, which would finish the campaign")
			}
		}
		if len(body) >= 1<<22 {
			t.Skip("a line may exceed the route's 4 MiB cap, which ends the stream")
		}

		rec := httptest.NewRecorder()
		h.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fabric/results", bytes.NewReader(body)))

		var want []string
		acked := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var env resultEnvelope
			switch {
			case json.Unmarshal(line, &env) != nil || env.Campaign != lease.Campaign || env.Result.Key != lease.Key:
				want = append(want, AckUnknown)
			case acked:
				want = append(want, AckDuplicate)
			default:
				want = append(want, AckAccepted)
				acked = true
			}
		}
		got := readAcks(t, rec)
		if len(got) != len(want) {
			t.Fatalf("%d acks for %d non-blank lines", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ack %d = %q, want %q (acks %v)", i, got[i], want[i], got)
			}
		}
	})
}

// TestResultsRouteAcksLongLine posts one result line longer than 64 KiB and
// well under the route's 4 MiB line cap: the scanner grows its buffer to
// fit, and the line is acked exactly once, as accepted.
func TestResultsRouteAcksLongLine(t *testing.T) {
	h, lease, stop := leaseOne(t, wireSpec(t))
	defer stop()
	line := fmt.Sprintf(`{"campaign": %q, "worker": "w", "pad": %q, "result": {"jobId": "j", "key": %q, "omega": 0.9}}`,
		lease.Campaign, strings.Repeat("x", 200<<10), lease.Key)
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/fabric/results", strings.NewReader(line+"\n")))
	if got := readAcks(t, rec); len(got) != 1 || got[0] != AckAccepted {
		t.Fatalf("acks %v for one %d-byte result line, want [%s]", got, len(line), AckAccepted)
	}
}

// wireSpec is the two-job campaign the results-wire tests lease from.
func wireSpec(t testing.TB) *sweep.Spec {
	spec, err := sweep.ParseSpec([]byte(fmt.Sprintf(`{"name": "wire", "base": %s, "seeds": [1, 2]}`, testBase)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// leaseOne runs spec's campaign on a fresh hub and leases one of its jobs to
// worker "w". stop cancels the campaign and waits for it to end.
func leaseOne(t testing.TB, spec *sweep.Spec) (h *Hub, lease *Lease, stop func()) {
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	h = testHub(newFakeClock(), 3)
	ctx, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		_, _ = h.RunCampaign(ctx, spec, jobs, sweep.RunOpts{})
	}()
	stop = func() {
		cancel()
		<-finished
	}
	h.Register("w")
	for deadline := time.Now().Add(5 * time.Second); lease == nil; {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("campaign never became leasable")
		}
		if lease = h.Lease("w"); lease == nil {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return h, lease, stop
}

// readAcks decodes the route's NDJSON ack stream into its statuses, failing
// on a malformed line or an unknown status.
func readAcks(t testing.TB, rec *httptest.ResponseRecorder) []string {
	var got []string
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var ack ackLine
		if err := dec.Decode(&ack); err != nil {
			t.Fatalf("ack stream: %v", err)
		}
		switch ack.Status {
		case AckAccepted, AckDuplicate, AckUnknown:
		default:
			t.Fatalf("ack %d: status %q", len(got), ack.Status)
		}
		got = append(got, ack.Status)
	}
	return got
}
