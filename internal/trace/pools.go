package trace

import (
	"math"
	"sync"
)

// Pools memoizes replayed providers across the builds of one campaign.
// The evaluation replays the same infrastructure traces under every policy,
// dynamism setting and rate it compares, and a provider is a pure function
// of its resolved config that nothing writes to once built (its network
// pools are generated once, under a sync.Once, by whichever read comes
// first), so the campaign's jobs can share one provider per distinct config
// instead of each generating its own.
//
// A Pools holds every provider it has generated for as long as it lives
// (about 0.45 MB for a default provider, its CPU traces, and about 1.2 MB
// once a network read has generated the rest), so it belongs to one
// campaign and is dropped with it: the campaign memo, scenario.Memo, holds
// it beside the campaign's shared random walks. There is deliberately no
// process-wide instance. The zero value is ready to use, and a nil *Pools
// generates afresh on every call.
type Pools struct {
	mu    sync.Mutex
	byKey map[poolKey]*pooled
}

// pooled is one memo entry: generated once, by whichever caller gets there
// first, while concurrent callers for the same config wait on the Once.
type pooled struct {
	once sync.Once
	p    *Replayed
	err  error
}

// Replayed returns NewReplayed(cfg), generating it only on the first
// request for cfg's resolved configuration (defaults applied); an invalid
// config's error is memoized too. The provider is shared with every other
// caller of the same config and must not be modified.
func (ps *Pools) Replayed(cfg ReplayedConfig) (*Replayed, error) {
	if ps == nil {
		return NewReplayed(cfg)
	}
	cfg = cfg.resolved()
	key := keyOf(cfg)
	ps.mu.Lock()
	e := ps.byKey[key]
	if e == nil {
		if ps.byKey == nil {
			ps.byKey = map[poolKey]*pooled{}
		}
		e = &pooled{}
		ps.byKey[key] = e
	}
	ps.mu.Unlock()
	e.once.Do(func() { e.p, e.err = NewReplayed(cfg) })
	return e.p, e.err
}

// poolKey identifies a resolved ReplayedConfig. Floats enter by their bits:
// -0 and +0 can generate different samples, so they must not share a pool,
// and a NaN parameter still matches itself.
type poolKey struct {
	cpuTraces, netTraces, samples int
	seed                          int64
	cpu, lat, bw                  genKey
}

// genKey is a GenConfig by value, its floats as bits.
type genKey struct {
	floats    [8]uint64
	periodSec int64
}

func keyOf(cfg ReplayedConfig) poolKey {
	return poolKey{
		cpuTraces: cfg.CPUTraces, netTraces: cfg.NetTraces, samples: cfg.Samples,
		seed: cfg.Seed,
		cpu:  genKeyOf(cfg.CPU), lat: genKeyOf(cfg.Latency), bw: genKeyOf(cfg.Bandwidth),
	}
}

func genKeyOf(c GenConfig) genKey {
	return genKey{
		floats: [8]uint64{
			math.Float64bits(c.Mean), math.Float64bits(c.Theta),
			math.Float64bits(c.Sigma), math.Float64bits(c.RegimeProb),
			math.Float64bits(c.RegimeAmp), math.Float64bits(c.DiurnalAmp),
			math.Float64bits(c.Min), math.Float64bits(c.Max),
		},
		periodSec: c.PeriodSec,
	}
}
