package obs

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryConcurrentScrapeAndWrite hammers one registry from writer
// goroutines — updating counters, gauges, and histograms, and minting new
// labeled series mid-flight — while scrapers render the exposition. Run
// under -race (ci.sh does) this pins the registry's locking discipline;
// the final scrape must also reflect every write that happened-before it.
func TestRegistryConcurrentScrapeAndWrite(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("stress_total", "writes")
	gauge := reg.Gauge("stress_level", "level")
	hist := reg.Histogram("stress_seconds", "latency", nil)
	vec := reg.CounterVec("stress_by_worker_total", "writes by worker", "worker")

	const writers, rounds = 8, 200
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < rounds; i++ {
				ctr.Inc()
				gauge.Set(float64(i))
				hist.Observe(float64(i) / rounds)
				vec.With(name).Inc()
			}
		}(w)
	}
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for !stop.Load() {
			var b bytes.Buffer
			if err := reg.WriteText(&b); err != nil {
				t.Errorf("WriteText during writes: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	<-scraperDone

	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "stress_total 1600") {
		t.Fatalf("final scrape lost counter writes:\n%s", out)
	}
	if !strings.Contains(out, `stress_seconds_count 1600`) {
		t.Fatalf("final scrape lost histogram observations:\n%s", out)
	}
	for w := 0; w < writers; w++ {
		series := `stress_by_worker_total{worker="` + string(rune('a'+w)) + `"} 200`
		if !strings.Contains(out, series) {
			t.Fatalf("final scrape missing %q:\n%s", series, out)
		}
	}
}

// TestWriteTextStableWhileWritersActive scrapes repeatedly while writer
// goroutines keep storing the SAME values: every scrape must render to
// identical bytes, proving exposition order does not depend on write
// interleaving (families sorted, series sorted, no map-order leakage).
func TestWriteTextStableWhileWritersActive(t *testing.T) {
	reg := NewRegistry()
	gauge := reg.Gauge("steady_level", "level")
	vec := reg.GaugeVec("steady_by_stage", "per stage", "stage")
	stages := []string{"flow", "observe", "billing"}
	gauge.Set(7)
	for _, s := range stages {
		vec.With(s).Set(1)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				gauge.Set(7)
				for _, s := range stages {
					vec.With(s).Set(1)
				}
			}
		}()
	}

	var first bytes.Buffer
	if err := reg.WriteText(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		var b bytes.Buffer
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), b.Bytes()) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("scrape %d diverged while constant-value writers were active\n-- first --\n%s-- got --\n%s",
				i, first.String(), b.String())
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestTracerConcurrentEmit: With children of one tracer emit from several
// goroutines at once, decisions included, so they share the core's encoder
// and buffer. Every event must reach the sink as one whole line, the line
// json.Encoder writes for it. Run under -race (ci.sh does) this pins the
// encoder state to the core's mutex.
func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	root := NewTracer(&buf)
	const writers, rounds = 4, 200
	events := benchEvents()
	want := map[string]int{}
	for w := 0; w < writers; w++ {
		worker := string(rune('a' + w))
		for i := 0; i < rounds; i++ {
			ev := events[i%len(events)]
			ev.V, ev.Sec, ev.Trace, ev.Span, ev.Worker = SchemaVersion, int64(i), "campaign", "job#"+worker, worker
			line, err := encodeReference(&ev)
			if err != nil {
				t.Fatal(err)
			}
			want[string(line)]++
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		worker := string(rune('a' + w))
		child := root.With("campaign", "job#"+worker, worker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ev := events[i%len(events)]
				ev.Sec = int64(i)
				child.Emit(ev)
			}
		}()
	}
	wg.Wait()
	if err := root.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := root.Count(); n != writers*rounds {
		t.Fatalf("count = %d, want %d", n, writers*rounds)
	}
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line == "" {
			continue
		}
		want[line]--
	}
	for line, n := range want {
		if n != 0 {
			t.Fatalf("line written %d times too few: %s", n, line)
		}
	}
}
