package scenario

import (
	"math"
	"sync"

	"dynamicdf/internal/rates"
	"dynamicdf/internal/trace"
)

// Memo is what the lowerings of one campaign share, because every run of
// the campaign would otherwise compute it again: the replayed providers of
// its infrastructure traces (trace.Pools) and the random walks of its input
// rates. A campaign's jobs are seeded variations of one document, so they
// replay few distinct configs and draw few distinct walks: paper-grid's 48
// wave+walk jobs draw 6.
//
// A walk is shared as a read-only prefix of its steps, generated once per
// distinct (mean, step, step period, clamps, seed) under a sync.Once and
// long enough for the horizon of the first run that asks for it; a run
// that reads past it regenerates the walk privately (rates.RandomWalk.Share).
// A prefix costs 8 bytes a step, 4.7 KB for a 10 h run at 60 s steps,
// where each run drew a 1,024-step walk and a ~4.9 KB source of its own.
//
// A Memo holds everything it has generated for as long as it lives, so it
// belongs to one campaign and is dropped with it; there is deliberately no
// process-wide instance. The zero value is ready to use, it is safe for
// concurrent use, and a nil *Memo generates afresh on every lowering.
type Memo struct {
	pools trace.Pools

	mu    sync.Mutex
	walks map[walkKey]*walkPrefix
}

// walkPrefix is one shared walk prefix: generated once, by whichever run
// gets there first, while concurrent runs of the same walk wait on the Once.
type walkPrefix struct {
	once  sync.Once
	steps []float64
}

// walkKey identifies a walk by everything its steps depend on. Floats enter
// by their bits, as trace.Pools keys them: -0 and +0 can draw different
// walks, and a NaN parameter still matches itself.
type walkKey struct {
	mean, step, lo, hi uint64
	stepSec, seed      int64
}

// replayed returns the replayed provider for cfg from the memo's pools, or a
// fresh one without a memo.
func (m *Memo) replayed(cfg trace.ReplayedConfig) (*trace.Replayed, error) {
	if m == nil {
		return trace.NewReplayed(cfg)
	}
	return m.pools.Replayed(cfg)
}

// shareWalk hands prof's random walk, if it has one, the memo's prefix of
// that walk, long enough for a run of horizonSec.
func (m *Memo) shareWalk(prof rates.Profile, horizonSec int64) {
	var rw *rates.RandomWalk
	switch p := prof.(type) {
	case *rates.RandomWalk:
		rw = p
	case *wavewalk:
		rw = p.b
	}
	if m == nil || rw == nil {
		return
	}
	key := walkKey{
		mean: math.Float64bits(rw.MeanRate), step: math.Float64bits(rw.Step),
		lo: math.Float64bits(rw.Lo), hi: math.Float64bits(rw.Hi),
		stepSec: rw.StepSec, seed: rw.Seed,
	}
	m.mu.Lock()
	w := m.walks[key]
	if w == nil {
		if m.walks == nil {
			m.walks = map[walkKey]*walkPrefix{}
		}
		w = &walkPrefix{}
		m.walks[key] = w
	}
	m.mu.Unlock()
	w.once.Do(func() { w.steps = rw.Prefix(int(horizonSec/rw.StepSec) + 1) })
	rw.Share(w.steps)
}
