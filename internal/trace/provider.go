package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Provider exposes the runtime infrastructure behaviour the monitoring
// framework observes (§4): per-VM normalized CPU coefficients and pairwise
// network latency/bandwidth. VMs are identified by the opaque trace ids the
// simulator assigns at acquisition.
//
// Every method must be a pure function of its arguments: the same ids and
// sec always give the same value, whenever and however often it is called.
// The simulator relies on this: a checkpoint carries no trace values, so a
// restored run re-reads the traces the original run read.
//
// A Provider may also declare a bandwidth floor with a method
//
//	BandwidthFloorMbps() float64
//
// whose value no BandwidthMbps result is below (a NaN result is allowed: it
// compares below nothing). The simulator then skips the bandwidth read of
// every link whose flow stays within the floor's message-rate cap, since no
// sample could cap it. A Provider without the method has every link read.
type Provider interface {
	// CPUCoeff returns the multiplicative coefficient applied to a VM's
	// rated core speed at time sec: pi_runtime = coeff * pi_rated.
	CPUCoeff(vmTraceID int64, sec int64) float64
	// LatencySec returns the one-way network latency between two VMs in
	// seconds at time sec.
	LatencySec(aTraceID, bTraceID int64, sec int64) float64
	// BandwidthMbps returns the achievable bandwidth between two VMs in
	// megabits per second at time sec.
	BandwidthMbps(aTraceID, bTraceID int64, sec int64) float64
}

// Ideal is a Provider for a perfectly stable cloud: every VM delivers its
// rated performance, links deliver ratedMbps with fixed small latency. It is
// the "no infrastructure variability" scenario of Fig. 4.
type Ideal struct {
	// RatedMbps is the pairwise bandwidth (default 100, the paper's
	// deployment-time assumption).
	RatedMbps float64
	// FixedLatencySec is the constant pairwise latency (default 0.5 ms).
	FixedLatencySec float64
}

// NewIdeal returns an Ideal provider with the paper's defaults.
func NewIdeal() *Ideal {
	return &Ideal{RatedMbps: 100, FixedLatencySec: 0.0005}
}

// CPUCoeff implements Provider: always 1.
func (p *Ideal) CPUCoeff(int64, int64) float64 { return 1 }

// LatencySec implements Provider.
func (p *Ideal) LatencySec(int64, int64, int64) float64 { return p.FixedLatencySec }

// BandwidthMbps implements Provider.
func (p *Ideal) BandwidthMbps(int64, int64, int64) float64 { return p.RatedMbps }

// BandwidthFloorMbps declares the provider's bandwidth floor (see Provider):
// every link reads RatedMbps.
func (p *Ideal) BandwidthFloorMbps() float64 { return p.RatedMbps }

// Replayed is a Provider that replays generated (or loaded) traces. A pool
// of base traces is generated once; each VM trace id deterministically maps
// to a (trace, window offset) pair, and each unordered VM pair maps to
// latency/bandwidth traces the same way. This mirrors §8.1: "we assign a
// random time period from the traces for each active VM to replay".
//
// The CPU pool is generated with the provider. The latency and bandwidth
// pools, two thirds of a default provider, are generated on the first
// network read, from the same random source in the same order, so every
// sample equals what eager generation draws; a run whose links never read
// the network never pays for them.
type Replayed struct {
	cpu []*Series
	// lat and bw are nil until netOnce runs genNetwork.
	lat []*Series
	bw  []*Series
	// seed decorrelates window assignment between Replayed instances.
	seed int64
	// bwFloor is no greater than any bandwidth sample (BandwidthFloorMbps).
	bwFloor float64
	netOnce sync.Once
	// gen is the generation NewReplayed started; nil once the network
	// pools are drawn.
	gen *poolGen
}

// poolGen is a pool generation in progress: the resolved config, the random
// source every trace draws from in turn, and the diurnal tables tabulated
// so far.
type poolGen struct {
	cfg    ReplayedConfig
	rng    *rand.Rand
	shapes map[int64][]float64
}

// shape returns the diurnal table c.generate reads, nil when c has no
// diurnal term. Kinds that share a period share one table.
func (g *poolGen) shape(c GenConfig) []float64 {
	if c.DiurnalAmp == 0 {
		return nil
	}
	t, ok := g.shapes[c.PeriodSec]
	if !ok {
		t = diurnalShape(c.PeriodSec, g.cfg.Samples)
		g.shapes[c.PeriodSec] = t
	}
	return t
}

// ReplayedConfig controls trace-pool construction.
type ReplayedConfig struct {
	// Pool sizes: how many distinct base traces to generate per kind.
	CPUTraces, NetTraces int
	// Samples per generated trace.
	Samples int
	// Generation parameters; zero values take the package defaults.
	CPU, Latency, Bandwidth GenConfig
	// Seed makes the whole provider deterministic.
	Seed int64
}

// NewReplayed validates the config, generates the CPU pool and returns the
// provider; the network pools follow on the first network read.
func NewReplayed(cfg ReplayedConfig) (*Replayed, error) {
	cfg = cfg.resolved()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := &poolGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), shapes: map[int64][]float64{}}
	p := &Replayed{
		cpu:     make([]*Series, cfg.CPUTraces),
		seed:    cfg.Seed,
		bwFloor: cfg.Bandwidth.Min,
		gen:     g,
	}
	cpuShape := g.shape(cfg.CPU)
	for i := range p.cpu {
		p.cpu[i] = cfg.CPU.generate(g.rng, cfg.Samples, cpuShape)
	}
	return p, nil
}

// network returns the latency and bandwidth pools, generating them on the
// first call. Concurrent first calls on a shared provider wait for one
// generation.
func (p *Replayed) network() (lat, bw []*Series) {
	p.netOnce.Do(p.genNetwork)
	return p.lat, p.bw
}

// genNetwork draws the latency and bandwidth pools, interleaved trace by
// trace, from where the CPU pool left the random source.
func (p *Replayed) genNetwork() {
	g := p.gen
	cfg := g.cfg
	latShape, bwShape := g.shape(cfg.Latency), g.shape(cfg.Bandwidth)
	p.lat = make([]*Series, cfg.NetTraces)
	p.bw = make([]*Series, cfg.NetTraces)
	for i := range p.lat {
		p.lat[i] = cfg.Latency.generate(g.rng, cfg.Samples, latShape)
		p.bw[i] = cfg.Bandwidth.generate(g.rng, cfg.Samples, bwShape)
	}
	p.gen = nil
}

// resolved returns cfg with every unset field replaced by its default: the
// configuration NewReplayed generates from.
func (cfg ReplayedConfig) resolved() ReplayedConfig {
	if cfg.CPUTraces <= 0 {
		cfg.CPUTraces = 8
	}
	if cfg.NetTraces <= 0 {
		cfg.NetTraces = 8
	}
	if cfg.Samples <= 0 {
		cfg.Samples = FourDays
	}
	if cfg.CPU.PeriodSec == 0 {
		cfg.CPU = DefaultCPUConfig()
	}
	if cfg.Latency.PeriodSec == 0 {
		cfg.Latency = DefaultLatencyConfig()
	}
	if cfg.Bandwidth.PeriodSec == 0 {
		cfg.Bandwidth = DefaultBandwidthConfig()
	}
	return cfg
}

// validate checks a resolved config's generator parameters and that every
// trace's span (period × samples seconds) fits in an int64: a wrapped span
// would leave replay lookups dividing by zero.
func (cfg ReplayedConfig) validate() error {
	for _, d := range [...]struct {
		kind string
		gen  GenConfig
	}{{"cpu", cfg.CPU}, {"latency", cfg.Latency}, {"bandwidth", cfg.Bandwidth}} {
		if err := d.gen.Validate(); err != nil {
			return err
		}
		if err := checkSpan(d.kind, d.gen.PeriodSec, cfg.Samples); err != nil {
			return err
		}
	}
	return nil
}

// checkSpan rejects a trace whose span, period × n seconds, exceeds
// math.MaxInt64.
func checkSpan(kind string, periodSec int64, n int) error {
	if periodSec > math.MaxInt64/int64(n) {
		return fmt.Errorf("trace: %s period %ds × %d samples overflows the trace span", kind, periodSec, n)
	}
	return nil
}

// MustReplayed is NewReplayed that panics on error.
func MustReplayed(cfg ReplayedConfig) *Replayed {
	p, err := NewReplayed(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// splitmix64 hashes an id into a well-mixed 64-bit value; used to map trace
// ids onto pool indices and window offsets deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pickAt maps the id to its (trace, window offset) pair and reads the window
// at time sec, without materializing a Window value — the replay path sits on
// the simulator's per-interval probe loops, which must not allocate.
func (p *Replayed) pickAt(id int64, pool []*Series, sec int64) float64 {
	h := splitmix64(uint64(id) ^ uint64(p.seed)*0x9e3779b97f4a7c15)
	s := pool[int(h%uint64(len(pool)))]
	offset := int64((h >> 20) % uint64(s.Duration()))
	return s.At(sec + offset)
}

func pairID(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(splitmix64(uint64(a)*0x100000001b3 ^ uint64(b)))
}

// CPUCoeff implements Provider.
func (p *Replayed) CPUCoeff(vmTraceID int64, sec int64) float64 {
	return p.pickAt(vmTraceID, p.cpu, sec)
}

// LatencySec implements Provider. Colocation shortcuts (lambda -> 0 for PEs
// on the same VM) are the simulator's job; the provider always reports the
// network path.
func (p *Replayed) LatencySec(a, b int64, sec int64) float64 {
	lat, _ := p.network()
	return p.pickAt(pairID(a, b), lat, sec)
}

// BandwidthMbps implements Provider.
func (p *Replayed) BandwidthMbps(a, b int64, sec int64) float64 {
	_, bw := p.network()
	return p.pickAt(pairID(a, b), bw, sec)
}

// BandwidthFloorMbps declares the provider's bandwidth floor (see
// Provider): the generator's Min, which clamps every generated sample, or 0
// for a loaded pool, whose samples NewReplayedFromSeries checks are not
// negative. Reading it generates nothing.
func (p *Replayed) BandwidthFloorMbps() float64 { return p.bwFloor }

// Scaled wraps a Provider and scales its CPU coefficient, for ablations
// (e.g. uniformly slower clouds). Latency/bandwidth pass through.
type Scaled struct {
	Base  Provider
	Scale float64
}

// CPUCoeff implements Provider.
func (s *Scaled) CPUCoeff(id int64, sec int64) float64 {
	return s.Base.CPUCoeff(id, sec) * s.Scale
}

// LatencySec implements Provider.
func (s *Scaled) LatencySec(a, b int64, sec int64) float64 {
	return s.Base.LatencySec(a, b, sec)
}

// BandwidthMbps implements Provider.
func (s *Scaled) BandwidthMbps(a, b int64, sec int64) float64 {
	return s.Base.BandwidthMbps(a, b, sec)
}
