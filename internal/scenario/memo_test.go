package scenario

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"dynamicdf/internal/rates"
)

// walkOf returns the random walk a lowered input profile draws, or nil.
func walkOf(p rates.Profile) *rates.RandomWalk {
	switch p := p.(type) {
	case *rates.RandomWalk:
		return p
	case *wavewalk:
		return p.b
	}
	return nil
}

// TestMemoSharesEachWalkOnce lowers, from two goroutines through one memo,
// three scenarios (one per policy) of each of eight walks: wavewalk and
// randomwalk inputs at two means and two seeds, then a two-tenant scenario
// that draws one walk already held and one new one. The memo must hold
// one prefix per distinct walk, long enough for the horizon; every lowered
// walk must read that prefix, and read what a fresh walk reads; and a
// lowering without a memo must draw its own walk.
func TestMemoSharesEachWalkOnce(t *testing.T) {
	doc := func(kind string, mean float64, seed int64, policy string) string {
		return strings.Replace(minimal, `"rate": {"kind": "constant", "mean": 5}`,
			fmt.Sprintf(`"rate": {"kind": %q, "mean": %g, "seed": %d}, "policy": {"kind": %q}`, kind, mean, seed, policy), 1)
	}
	var docs []string
	for _, kind := range []string{"wavewalk", "randomwalk"} {
		for _, mean := range []float64{5, 12} {
			for _, seed := range []int64{3, 4} {
				for _, policy := range []string{"global", "local", "global"} {
					docs = append(docs, doc(kind, mean, seed, policy))
				}
			}
		}
	}
	memo := new(Memo)
	walks := make([]*rates.RandomWalk, len(docs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += 2 {
				sc, err := Parse(strings.NewReader(docs[i]))
				if err != nil {
					t.Error(err)
					return
				}
				built, err := sc.Lower(memo)
				if err != nil {
					t.Error(err)
					return
				}
				walks[i] = walkOf(built.Config.Inputs[built.Config.Graph.Inputs()[0]])
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(memo.walks) != 8 {
		t.Fatalf("memo holds %d walks for 8 distinct ones", len(memo.walks))
	}
	const steps = 3600/60 + 1 // a 1 h horizon at 60 s steps, both ends
	for i, rw := range walks {
		if rw == nil {
			t.Fatalf("scenario %d lowered no walk", i)
		}
		w := memo.walks[walkKey{
			mean: math.Float64bits(rw.MeanRate), step: math.Float64bits(rw.Step),
			lo: math.Float64bits(rw.Lo), hi: math.Float64bits(rw.Hi),
			stepSec: rw.StepSec, seed: rw.Seed,
		}]
		if w == nil || len(w.steps) != steps {
			t.Fatalf("scenario %d: the memo's prefix is %v, want %d steps", i, w, steps)
		}
		// The walk reads the memo's slice, not a copy of its own.
		old := w.steps[7]
		w.steps[7] = -1
		got := rw.Rate(7 * rw.StepSec)
		w.steps[7] = old
		if got != -1 {
			t.Fatalf("scenario %d draws its own walk", i)
		}
		fresh, err := rates.NewRandomWalk(rw.MeanRate, rw.Step, rw.StepSec, rw.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 2*steps; k++ {
			if a, b := rw.Rate(k*rw.StepSec), fresh.Rate(k*rw.StepSec); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("scenario %d step %d: %v, fresh walk %v", i, k, a, b)
			}
		}
	}

	// The tenant path shares through the memo too: one tenant draws a walk
	// the memo holds, the other a new one.
	graph := `{"pes": [{"name": "a", "alternates": [{"name": "x", "value": 1, "cost": 0.2, "selectivity": 1}]}], "edges": []}`
	tenants, err := Parse(strings.NewReader(`{"tenants": [
	    {"name": "held", "graph": ` + graph + `, "rate": {"kind": "wavewalk", "mean": 5, "seed": 3}},
	    {"name": "new", "graph": ` + graph + `, "rate": {"kind": "randomwalk", "mean": 7, "seed": 3}}],
	  "horizonHours": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tenants.Lower(memo); err != nil {
		t.Fatal(err)
	}
	if len(memo.walks) != 9 {
		t.Fatalf("memo holds %d walks after the tenants, want 9", len(memo.walks))
	}

	// Without a memo a lowering draws a walk of its own.
	sc, err := Parse(strings.NewReader(docs[0]))
	if err != nil {
		t.Fatal(err)
	}
	built, err := sc.Lower(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range memo.walks {
		w.steps[7] = -1
	}
	if rw := walkOf(built.Config.Inputs[built.Config.Graph.Inputs()[0]]); rw.Rate(7*rw.StepSec) == -1 {
		t.Fatal("a lowering without a memo reads a memo's walk")
	}
}
