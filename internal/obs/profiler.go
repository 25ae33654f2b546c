package obs

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// StageProfiler records per-stage wall time and heap-allocation deltas for
// the engine's named-stage step pipeline and the scheduler's deploy and
// adapt phases around it. It is a measurement instrument,
// not a trace source: wall-clock readings are non-deterministic and must
// never enter an NDJSON event stream, so the profiler accumulates in
// memory (and, when bound to a Registry, into sim_stage_* series) and
// renders reports directly.
//
// Like the tracer and checker hooks, a nil *StageProfiler is a no-op and
// the detached hook costs zero allocations on the engine hot path: Begin
// returns a stack StageMark and End returns immediately. Allocation deltas
// come from the runtime/metrics heap-objects counter; because the counter
// is process-global, attach one profiler to one single-threaded engine at a
// time for faithful attribution (concurrent use is safe, just blurs the
// numbers). Wall time is recorded on every call, but the counter is read
// only on sampled calls: a runtime/metrics read costs far more than a fast
// stage's body, and reading it twice per stage nearly tripled the step time
// of a profiled engine.
type StageProfiler struct {
	mu      sync.Mutex
	names   []string
	index   map[string]int
	stats   []stageAcc
	sample  []metrics.Sample
	calls   atomic.Uint64
	seconds *HistogramVec
	allocs  *HistogramVec
}

// allocSampleEvery is the allocation-sampling period in Begin calls. It is
// coprime to the calls an engine interval makes (8 stages, 9 with the
// scheduler's adapt phase), so the sampled call rotates through every stage
// instead of pinning to a few; the first call is sampled, so even a
// single-shot profile reports allocation data.
const allocSampleEvery = 31

// stageAcc accumulates one stage's samples.
type stageAcc struct {
	count        int64
	wallNs       int64
	minNs        int64
	maxNs        int64
	allocs       uint64
	allocSamples int64
	started      bool
}

// StageMark is the begin-of-stage reading End consumes; it lives on the
// caller's stack so the hook allocates nothing.
type StageMark struct {
	t       time.Time
	allocs  uint64
	sampled bool
}

// StageSecondsBuckets is the histogram ladder for per-stage wall time
// (seconds); stages run in the microsecond range.
var StageSecondsBuckets = []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2}

// StageAllocsBuckets is the histogram ladder for per-stage heap objects
// allocated.
var StageAllocsBuckets = []float64{0, 1, 4, 16, 64, 256, 1024, 4096}

// NewStageProfiler returns a profiler with no stages registered. Pass a
// non-nil registry to also publish sim_stage_seconds / sim_stage_allocs
// histograms labeled by stage.
func NewStageProfiler(reg *Registry) *StageProfiler {
	p := &StageProfiler{
		index:  map[string]int{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
	if reg != nil {
		p.seconds = reg.HistogramVec("sim_stage_seconds", "Wall time per engine pipeline stage.", StageSecondsBuckets, "stage")
		p.allocs = reg.HistogramVec("sim_stage_allocs", "Heap objects allocated per engine pipeline stage.", StageAllocsBuckets, "stage")
	}
	return p
}

// StageIndex registers a stage name (idempotently) and returns its dense
// index for End.
func (p *StageProfiler) StageIndex(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.index[name]; ok {
		return i
	}
	i := len(p.names)
	p.index[name] = i
	p.names = append(p.names, name)
	p.stats = append(p.stats, stageAcc{})
	return i
}

// Begin samples the clocks at stage entry. Nil-safe: a nil profiler
// returns the zero mark.
func (p *StageProfiler) Begin() StageMark {
	if p == nil {
		return StageMark{}
	}
	var m StageMark
	m.sampled = (p.calls.Add(1)-1)%allocSampleEvery == 0
	if m.sampled {
		p.mu.Lock()
		metrics.Read(p.sample)
		m.allocs = p.sample[0].Value.Uint64()
		p.mu.Unlock()
	}
	m.t = time.Now()
	return m
}

// End records one stage sample against index i (from StageIndex). Nil-safe.
func (p *StageProfiler) End(i int, m StageMark) {
	if p == nil {
		return
	}
	ns := time.Since(m.t).Nanoseconds()
	p.mu.Lock()
	defer p.mu.Unlock()
	var da uint64
	if m.sampled {
		metrics.Read(p.sample)
		da = p.sample[0].Value.Uint64() - m.allocs
	}
	a := &p.stats[i]
	if !a.started || ns < a.minNs {
		a.minNs = ns
	}
	if ns > a.maxNs {
		a.maxNs = ns
	}
	a.started = true
	a.count++
	a.wallNs += ns
	if m.sampled {
		a.allocs += da
		a.allocSamples++
	}
	if p.seconds != nil {
		p.seconds.With(p.names[i]).Observe(float64(ns) / 1e9)
		if m.sampled {
			p.allocs.With(p.names[i]).Observe(float64(da))
		}
	}
}

// StageStats is one stage's aggregate profile. Allocs covers only the
// AllocSamples sampled calls, not all Count calls.
type StageStats struct {
	Name         string
	Count        int64
	WallNs       int64
	MinNs        int64
	MaxNs        int64
	Allocs       uint64
	AllocSamples int64
}

// Snapshot returns per-stage aggregates in registration (pipeline) order.
func (p *StageProfiler) Snapshot() []StageStats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]StageStats, len(p.names))
	for i, name := range p.names {
		a := p.stats[i]
		out[i] = StageStats{Name: name, Count: a.count, WallNs: a.wallNs, MinNs: a.minNs,
			MaxNs: a.maxNs, Allocs: a.allocs, AllocSamples: a.allocSamples}
	}
	return out
}

// Report renders the per-stage cost table in pipeline order followed by a
// cumulative "where did the step go" breakdown sorted by share of total
// wall time. The numbers are wall-clock measurements and vary run to run;
// only the layout is stable.
func (p *StageProfiler) Report() string {
	stats := p.Snapshot()
	var b strings.Builder
	var totalNs int64
	var totalAllocs uint64
	for _, s := range stats {
		totalNs += s.WallNs
		totalAllocs += s.Allocs
	}
	fmt.Fprintf(&b, "%-12s %8s %12s %10s %10s %10s %10s %12s\n",
		"stage", "calls", "total", "mean", "min", "max", "allocs", "allocs/call")
	for _, s := range stats {
		var mean time.Duration
		var perCall float64
		if s.Count > 0 {
			mean = time.Duration(s.WallNs / s.Count)
		}
		if s.AllocSamples > 0 {
			perCall = float64(s.Allocs) / float64(s.AllocSamples)
		}
		fmt.Fprintf(&b, "%-12s %8d %12s %10s %10s %10s %10d %12.1f\n",
			s.Name, s.Count, time.Duration(s.WallNs), mean,
			time.Duration(s.MinNs), time.Duration(s.MaxNs), s.Allocs, perCall)
	}
	fmt.Fprintf(&b, "%-12s %8s %12s %41s %10d\n", "total", "", time.Duration(totalNs), "", totalAllocs)

	b.WriteString("\n-- where did the step go --\n")
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool { return stats[order[a]].WallNs > stats[order[c]].WallNs })
	var cum float64
	for _, i := range order {
		s := stats[i]
		share := 0.0
		if totalNs > 0 {
			share = 100 * float64(s.WallNs) / float64(totalNs)
		}
		cum += share
		fmt.Fprintf(&b, "%-12s %6.1f%%  cum %6.1f%%  %12s %10d allocs\n",
			s.Name, share, cum, time.Duration(s.WallNs), s.Allocs)
	}
	return b.String()
}
