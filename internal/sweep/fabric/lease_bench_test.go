package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"dynamicdf/internal/sweep"
)

// BenchmarkLeaseRoundTrip times one fabric round trip over loopback HTTP: a
// worker's Client.Lease and its Client.SendResultSpanned of a stub result,
// against Hub.Handler, with no simulation. Allocations count both ends.
// The jobs come in campaigns of 256 or 16,384, each started outside the
// timer, so the rows tell whether the coordinator's work per event grows
// with the jobs a campaign has finished.
func BenchmarkLeaseRoundTrip(b *testing.B) {
	for _, tripBatch := range []int{256, 16384} {
		b.Run(fmt.Sprintf("jobs=%d", tripBatch), func(b *testing.B) { leaseRoundTrips(b, tripBatch) })
	}
}

func leaseRoundTrips(b *testing.B, tripBatch int) {
	hub := NewHub(Config{})
	ts := httptest.NewServer(hub.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	client.HTTP = ts.Client()
	ctx := context.Background()
	if _, err := client.Register(ctx, "bench"); err != nil {
		b.Fatal(err)
	}
	jobs := make([]sweep.Job, tripBatch)
	for i := range jobs {
		jobs[i] = sweep.Job{ID: fmt.Sprintf("trip=%d", i), Group: "trip",
			Key: sweep.JobKey([]byte(fmt.Sprint(i))), Canonical: []byte(testBase)}
	}

	// start registers the next campaign and waits until it is leasable; the
	// returned func cancels it and waits for its report.
	campaigns := 0
	start := func() (stop func()) {
		campaigns++
		spec := &sweep.Spec{Name: fmt.Sprintf("trips-%d", campaigns), Base: json.RawMessage(testBase)}
		cctx, cancel := context.WithCancel(ctx)
		ended := make(chan struct{})
		go func() {
			defer close(ended)
			_, _ = hub.RunCampaign(cctx, spec, jobs, sweep.RunOpts{})
		}()
		for leasable := false; !leasable; runtime.Gosched() {
			hub.mu.Lock()
			leasable = len(hub.campaigns) > 0
			hub.mu.Unlock()
		}
		return func() {
			cancel()
			<-ended
		}
	}

	stop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%tripBatch == 0 {
			b.StopTimer()
			stop()
			stop = start()
			b.StartTimer()
		}
		lease, err := client.Lease(ctx, "bench")
		if err != nil || lease == nil {
			b.Fatalf("trip %d: lease %v, %v", i, lease, err)
		}
		status, err := client.SendResultSpanned(ctx, lease.Campaign, "bench", lease.SpanID,
			sweep.Result{Key: lease.Key, Theta: 1})
		if err != nil || status != AckAccepted {
			b.Fatalf("trip %d: ack %q, %v", i, status, err)
		}
	}
	b.StopTimer()
	stop()
}
