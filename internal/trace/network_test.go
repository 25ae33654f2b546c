package trace

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestCPUReadsLeaveNetworkUngenerated: a provider answers CPU reads and its
// bandwidth floor from the CPU pool alone; the first latency or bandwidth
// read draws both network pools, equal to eager generation's.
func TestCPUReadsLeaveNetworkUngenerated(t *testing.T) {
	cfg := ReplayedConfig{Seed: 12}
	for _, first := range []string{"latency", "bandwidth"} {
		p := MustReplayed(cfg)
		for id := int64(0); id < 50; id++ {
			_ = p.CPUCoeff(id, id*600)
		}
		if f := p.BandwidthFloorMbps(); f != DefaultBandwidthConfig().Min {
			t.Fatalf("floor %v, want the bandwidth config's Min %v", f, DefaultBandwidthConfig().Min)
		}
		if p.lat != nil || p.bw != nil || p.gen == nil {
			t.Fatal("CPU reads generated the network pools")
		}
		if first == "latency" {
			_ = p.LatencySec(1, 2, 0)
		} else {
			_ = p.BandwidthMbps(1, 2, 0)
		}
		if p.lat == nil || p.bw == nil || p.gen != nil {
			t.Fatalf("a %s read left the network pools ungenerated", first)
		}
		samePools(t, "after a "+first+" read", p, cfg)
	}
}

// TestConcurrentFirstNetworkReads has 16 goroutines make the first network
// reads of one shared provider at once, as the jobs sharing a trace.Pools
// provider do: every read returns the reference pools' value. ci.sh runs it
// under the race detector.
func TestConcurrentFirstNetworkReads(t *testing.T) {
	cfg := ReplayedConfig{Seed: 31, Samples: 2000}.resolved()
	cpu, lat, bw := referenceReplayed(cfg)
	pool := func(samples [][]float64, period int64) []*Series {
		out := make([]*Series, len(samples))
		for i, s := range samples {
			out[i] = &Series{PeriodSec: period, Samples: s}
		}
		return out
	}
	ref := &Replayed{
		cpu:  pool(cpu, cfg.CPU.PeriodSec),
		lat:  pool(lat, cfg.Latency.PeriodSec),
		bw:   pool(bw, cfg.Bandwidth.PeriodSec),
		seed: cfg.Seed,
	}
	ref.netOnce.Do(func() {})

	p := MustReplayed(cfg)
	const readers = 16
	start := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < 40; k++ {
				a, b, sec := int64(g+k), int64(g*k+1), int64(k)*97
				got, want := p.LatencySec(a, b, sec), ref.LatencySec(a, b, sec)
				if (g+k)%2 == 1 {
					got, want = p.BandwidthMbps(a, b, sec), ref.BandwidthMbps(a, b, sec)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					errs <- fmt.Errorf("reader %d read %d: pair (%d, %d) at %d = %v, reference %v", g, k, a, b, sec, got, want)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBandwidthFloor: a generated provider declares its bandwidth config's
// Min, which no sample is below and some samples sit on, and replays with no
// allocation; a loaded bandwidth pool declares 0. Loading a network pool
// keeps the other one's generated samples, and loading CPU alone leaves the
// network pools to the first read.
func TestBandwidthFloor(t *testing.T) {
	if f := NewIdeal().BandwidthFloorMbps(); f != 100 {
		t.Fatalf("ideal floor %v, want its rated 100 Mbps", f)
	}
	gen := DefaultBandwidthConfig()
	gen.Min = 70
	p := MustReplayed(ReplayedConfig{Seed: 3, Bandwidth: gen})
	if f := p.BandwidthFloorMbps(); f != 70 {
		t.Fatalf("floor %v, want the bandwidth config's Min 70", f)
	}
	_, bwPool := p.network()
	atFloor := 0
	for i, s := range bwPool {
		for j, v := range s.Samples {
			if v < 70 {
				t.Fatalf("trace %d sample %d = %v, below the declared floor 70", i, j, v)
			}
			if v == 70 {
				atFloor++
			}
		}
	}
	if atFloor == 0 {
		t.Fatal("no sample sits on the floor; pick a higher Min")
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = p.BandwidthMbps(1, 2, 60)
		_ = p.LatencySec(3, 4, 60)
	}); n != 0 {
		t.Fatalf("a network read allocates %v objects, want 0", n)
	}

	cfg := ReplayedConfig{Seed: 3}.resolved()
	_, lat, bw := referenceReplayed(cfg)
	s, err := NewSeries(60, []float64{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	loaded := []*Series{s}
	cpuOnly, err := NewReplayedFromSeries(loaded, nil, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cpuOnly.gen == nil || cpuOnly.lat != nil || cpuOnly.BandwidthFloorMbps() != 20 {
		t.Fatalf("loaded CPU alone: network generated %v, floor %v; want ungenerated, 20", cpuOnly.gen == nil, cpuOnly.BandwidthFloorMbps())
	}
	latOnly, err := NewReplayedFromSeries(nil, loaded, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if latOnly.lat[0] != s || latOnly.BandwidthFloorMbps() != 20 {
		t.Fatalf("loaded latency: pool not replayed or floor %v, want 20", latOnly.BandwidthFloorMbps())
	}
	for i := range bw {
		sameBits(t, "generated bandwidth beside loaded latency", latOnly.bw[i], bw[i], cfg.Bandwidth.PeriodSec)
	}
	bwOnly, err := NewReplayedFromSeries(nil, nil, loaded, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bwOnly.bw[0] != s || bwOnly.BandwidthFloorMbps() != 0 {
		t.Fatalf("loaded bandwidth: pool not replayed or floor %v, want 0", bwOnly.BandwidthFloorMbps())
	}
	for i := range lat {
		sameBits(t, "generated latency beside loaded bandwidth", bwOnly.lat[i], lat[i], cfg.Latency.PeriodSec)
	}
}
