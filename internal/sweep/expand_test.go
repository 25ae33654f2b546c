package sweep_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/experiments"
	"dynamicdf/internal/scenario"
	"dynamicdf/internal/sweep"
)

// referenceExpand is the original Expand, kept verbatim as the oracle for
// the tree-based one: it merges patches as byte documents, decoding and
// re-encoding the whole document once per axis, once for the prefix, and
// once for the seed.
func referenceExpand(s *sweep.Spec) ([]sweep.Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		base, err := scenario.ParseBytes(s.Base)
		if err != nil {
			return nil, err
		}
		seeds = []int64{base.Seed}
	}

	var jobs []sweep.Job
	idx := make([]int, len(s.Axes))
	for {
		doc := append([]byte(nil), s.Base...)
		prefixDoc := append([]byte(nil), s.Base...)
		var labels []string
		for a, ax := range s.Axes {
			v := ax.Values[idx[a]]
			var err error
			doc, err = referenceMergePatch(doc, v.Patch)
			if err != nil {
				return nil, fmt.Errorf("sweep: axis %q value %q: %w", ax.Name, v.Label, err)
			}
			if s.WarmStart != nil && !ax.Warm {
				// The prefix identity is the job with warm-axis patches
				// dropped: jobs differing only along warm axes converge on
				// one prefix document.
				prefixDoc, err = referenceMergePatch(prefixDoc, v.Patch)
				if err != nil {
					return nil, fmt.Errorf("sweep: axis %q value %q: %w", ax.Name, v.Label, err)
				}
			}
			labels = append(labels, ax.Name+"="+v.Label)
		}
		group := strings.Join(labels, "/")
		for _, seed := range seeds {
			seedPatch := []byte(fmt.Sprintf(`{"seed": %d}`, seed))
			seeded, err := referenceMergePatch(doc, seedPatch)
			if err != nil {
				return nil, err
			}
			sc, err := scenario.ParseBytes(seeded)
			if err != nil {
				id := group
				if id != "" {
					id += "/"
				}
				return nil, fmt.Errorf("sweep: job %sseed=%d: %w", id, seed, err)
			}
			canonical, err := sc.CanonicalJSON()
			if err != nil {
				return nil, err
			}
			id := fmt.Sprintf("seed=%d", seed)
			if group != "" {
				id = group + "/" + id
			}
			job := sweep.Job{
				ID:        id,
				Group:     group,
				Seed:      seed,
				Scenario:  sc,
				Canonical: canonical,
				Key:       sweep.JobKey(canonical),
			}
			if s.WarmStart != nil {
				seededPrefix, err := referenceMergePatch(prefixDoc, seedPatch)
				if err != nil {
					return nil, err
				}
				psc, err := scenario.ParseBytes(seededPrefix)
				if err != nil {
					return nil, fmt.Errorf("sweep: job %s prefix: %w", id, err)
				}
				pCanonical, err := psc.CanonicalJSON()
				if err != nil {
					return nil, err
				}
				job.Prefix = psc
				job.PrefixKey = sweep.JobKey(pCanonical)
			}
			jobs = append(jobs, job)
		}
		// Advance the mixed-radix axis counter, fastest at the end.
		a := len(idx) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(s.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			break
		}
	}
	keySeen := map[string]string{}
	for _, j := range jobs {
		if prev, dup := keySeen[j.Key]; dup {
			return nil, fmt.Errorf("sweep: jobs %q and %q resolve to the same scenario (key %s)", prev, j.ID, j.Key)
		}
		keySeen[j.Key] = j.ID
	}
	return jobs, nil
}

// referenceMergePatch is the original byte-level MergePatch, kept verbatim
// so the oracle shares no merge code with the package under test.
func referenceMergePatch(target, patch []byte) ([]byte, error) {
	if len(bytes.TrimSpace(patch)) == 0 {
		return target, nil
	}
	var pv interface{}
	if err := referenceDecodeNumbers(patch, &pv); err != nil {
		return nil, fmt.Errorf("merge patch: %w", err)
	}
	pObj, ok := pv.(map[string]interface{})
	if !ok {
		// A non-object patch replaces the whole document.
		return json.Marshal(pv)
	}
	var tv interface{}
	if len(bytes.TrimSpace(target)) > 0 {
		if err := referenceDecodeNumbers(target, &tv); err != nil {
			return nil, fmt.Errorf("merge target: %w", err)
		}
	}
	tObj, ok := tv.(map[string]interface{})
	if !ok {
		tObj = map[string]interface{}{}
	}
	return json.Marshal(referenceMergeObjects(tObj, pObj))
}

// referenceMergeObjects merges patch into target per RFC 7386, mutating
// target.
func referenceMergeObjects(target, patch map[string]interface{}) map[string]interface{} {
	for k, pv := range patch {
		if pv == nil {
			delete(target, k)
			continue
		}
		if pObj, ok := pv.(map[string]interface{}); ok {
			if tObj, ok := target[k].(map[string]interface{}); ok {
				target[k] = referenceMergeObjects(tObj, pObj)
				continue
			}
			target[k] = referenceMergeObjects(map[string]interface{}{}, pObj)
			continue
		}
		target[k] = pv
	}
	return target
}

// referenceDecodeNumbers unmarshals with json.Number so integer fields keep
// full precision through the patch round trip.
func referenceDecodeNumbers(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// sameExpansion reports the first difference between two expansions of one
// spec: an error present on one side only or worded differently, a job
// count, or any job field. It returns "" when they agree.
func sameExpansion(got []sweep.Job, gotErr error, want []sweep.Job, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d jobs, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		switch {
		case g.ID != w.ID || g.Group != w.Group || g.Seed != w.Seed:
			return fmt.Sprintf("job %d is %s (group %q, seed %d), reference %s (group %q, seed %d)",
				i, g.ID, g.Group, g.Seed, w.ID, w.Group, w.Seed)
		case !bytes.Equal(g.Canonical, w.Canonical):
			return fmt.Sprintf("job %s canonical\n%s\nreference\n%s", w.ID, g.Canonical, w.Canonical)
		case g.Key != w.Key || g.PrefixKey != w.PrefixKey:
			return fmt.Sprintf("job %s keys %s/%s, reference %s/%s", w.ID, g.Key, g.PrefixKey, w.Key, w.PrefixKey)
		case !reflect.DeepEqual(g.Scenario, w.Scenario):
			return fmt.Sprintf("job %s scenario %+v, reference %+v", w.ID, g.Scenario, w.Scenario)
		case !reflect.DeepEqual(g.Prefix, w.Prefix):
			return fmt.Sprintf("job %s prefix %+v, reference %+v", w.ID, g.Prefix, w.Prefix)
		}
	}
	return ""
}

// randomBase is the random specs' base scenario: testBase's graph with
// nested objects under rate, policy, control (including a map the patches
// add to and delete from), check and infra.
const randomBase = `{
  "graph": {
    "pes": [
      {"name": "src", "alternates": [{"name": "e", "value": 1, "cost": 0.2, "selectivity": 1}]},
      {"name": "work", "alternates": [
        {"name": "full", "value": 1.0, "cost": 1.0, "selectivity": 1},
        {"name": "lite", "value": 0.8, "cost": 0.5, "selectivity": 1}
      ]}
    ],
    "edges": [["src", "work"]]
  },
  "rate": {"kind": "constant", "mean": 5, "seed": 3},
  "policy": {"kind": "global", "dynamic": true},
  "control": {"meanBootSec": 60, "perClassFailProb": {"m1.small": 0.1, "m1.large": 0.2}},
  "check": {"enabled": true, "epsilon": 0.001},
  "infra": {"kind": "ideal", "cpu": {"mean": 1, "sigma": 0.1}},
  "horizonHours": 0.1,
  "intervalSec": 60,
  "maxVMs": 40,
  "seed": 1
}`

// patchMembers are the top-level members random patches draw from. %d takes
// a small random integer. They delete existing and absent members at every
// depth, create objects that carry nulls, replace objects and arrays
// wholesale, and carry integers past float64's exact range.
var patchMembers = []string{
	`"rate": {"mean": %d}`,
	`"rate": {"mean": null, "seed": 9007199254740993}`,
	`"rate": {"kind": "wave", "amplitude": %d, "absent": null}`,
	`"policy": {"kind": "local"}`,
	`"policy": {"dynamic": null}`,
	`"policy": {"dynamic": false, "static": true}`,
	`"control": {"perClassFailProb": {"m1.small": null, "m2.large": 0.%d}}`,
	`"control": {"perClassFailProb": null}`,
	`"control": {"meanBootSec": null, "seed": 9007199254740993}`,
	`"control": {"acquireFailProb": 0.%d, "perClassFailProb": {"m1.large": 0.%d}}`,
	`"check": null`,
	`"check": {"strict": true, "epsilon": null}`,
	`"infra": {"cpu": {"sigma": null, "theta": 0.%d}}`,
	`"infra": {"cpu": null, "latency": {"mean": %d, "min": null}}`,
	`"graph": {"edges": [["work", "src"]]}`,
	`"graph": {"defaultMsgBytes": %d}`,
	`"maxVMs": %d`,
	`"maxVMs": null`,
	`"omegaHat": 0.%d`,
	`"absent": null`,
	`"seed": 9007199254740993`,
}

// badMembers fail the strict scenario parse: a scalar or array where the
// schema wants an object, and an unknown field.
var badMembers = []string{`"rate": 7`, `"control": [1, 2]`, `"typo": 1`}

// randomPatch draws one axis value's patch.
func randomPatch(r *rand.Rand) json.RawMessage {
	switch p := r.Intn(100); {
	case p < 5:
		return nil // missing
	case p < 8:
		return json.RawMessage(" \n")
	case p < 15:
		return json.RawMessage(`{}`)
	case p < 18:
		// A non-object patch replaces the whole document.
		return json.RawMessage([]string{`5`, `[1, {"a": null}]`, `null`, `"doc"`}[r.Intn(4)])
	case p < 20:
		return json.RawMessage(`{"rate": `) // malformed
	case p < 21:
		return json.RawMessage(`{"omegaHat": 0.5} trailing`)
	}
	var members []string
	for n := 1 + r.Intn(3); len(members) < n; {
		m := patchMembers[r.Intn(len(patchMembers))]
		if r.Intn(40) == 0 {
			m = badMembers[r.Intn(len(badMembers))]
		}
		members = append(members, strings.ReplaceAll(m, "%d", fmt.Sprint(1+r.Intn(9))))
	}
	return json.RawMessage("{" + strings.Join(members, ", ") + "}")
}

// randomSpec draws a spec of up to three axes of up to three values, half
// of them under warm start with a random subset of warm axes, and an empty
// or explicit seed list.
func randomSpec(r *rand.Rand, i int) *sweep.Spec {
	s := &sweep.Spec{Name: fmt.Sprintf("random-%d", i), Base: json.RawMessage(randomBase)}
	warm := r.Intn(2) == 0
	if warm {
		s.WarmStart = &sweep.WarmStartSpec{PrefixSec: 120}
	}
	for a := r.Intn(4); a > 0; a-- {
		ax := sweep.Axis{Name: fmt.Sprintf("a%d", len(s.Axes)), Warm: warm && r.Intn(2) == 0}
		for v := 1 + r.Intn(3); v > 0; v-- {
			ax.Values = append(ax.Values, sweep.AxisValue{Label: fmt.Sprintf("v%d", len(ax.Values)), Patch: randomPatch(r)})
		}
		s.Axes = append(s.Axes, ax)
	}
	if r.Intn(2) == 0 {
		for _, seed := range []int64{2, -4, 9007199254740993} {
			if r.Intn(2) == 0 {
				s.Seeds = append(s.Seeds, seed)
			}
		}
	}
	return s
}

// edgeSpecDocs are fixed specs at the edge of Expand's struct-space path
// (see overlay.go): each exercises one case the path must leave to the
// tree, or one way a patch writes through a value jobs share.
var edgeSpecDocs = func() []string {
	spec := func(name, base, axes, extra string) string {
		return `{"name": "` + name + `", "base": ` + base + `, "axes": [` + axes + `]` + extra + `}`
	}
	// The base spells some members other than by their exact json names.
	// Decoding matches names case-insensitively, and in a merged document
	// "horizonhours" sorts after a patch's "horizonHours" and wins.
	caseBase := strings.NewReplacer(`"horizonHours"`, `"horizonhours"`, `"rate"`, `"Rate"`,
		`"meanBootSec"`, `"meanbootsec"`).Replace(randomBase)
	// Duplicate members: the tree keeps the last "rate", a struct decode of
	// the raw base would merge both.
	dupBase := `{"rate": {"kind": "wave", "amplitude": 4},` + randomBase[1:]
	choicesBase := strings.Replace(randomBase, `"seed": 1`,
		`"seed": 1, "choices": [{"name": "c", "from": "src", "targets": ["work"]}]`, 1)
	graph := `{"pes": [{"name": "src", "alternates": [{"name": "e", "value": 1, "cost": 0.2, "selectivity": 1}]},
	  {"name": "work", "alternates": [{"name": "full", "value": 1, "cost": 1, "selectivity": 1}]}],
	  "edges": [["src", "work"]]}`
	tenantsBase := `{"tenants": [
	    {"name": "front", "graph": ` + graph + `, "rate": {"kind": "constant", "mean": 8}, "priority": 2,
	     "policy": {"kind": "local"}, "inputWeights": [1]},
	    {"name": "batch", "graph": ` + graph + `, "rate": {"kind": "constant", "mean": 8}}],
	  "infra": {"kind": "ideal"}, "horizonHours": 0.1, "maxVMs": 12, "seed": 1}`
	maxVMs := `{"name": "m", "values": [{"label": "30", "patch": {"maxVMs": 30}}, {"label": "31", "patch": {"maxVMs": 31}}]}`
	return []string{
		spec("base-case", caseBase, `
		  {"name": "a", "values": [{"label": "h", "patch": {"horizonHours": 0.2}}, {"label": "m", "patch": {"maxVMs": 30}}]},
		  {"name": "b", "values": [{"label": "r", "patch": {"rate": {"mean": 7}}},
		                           {"label": "boot", "patch": {"control": {"meanBootSec": 120}}}]}`, ""),
		spec("base-duplicates", dupBase, `
		  {"name": "a", "values": [{"label": "r", "patch": {"rate": {"mean": 7}}}, {"label": "none", "patch": {}}]}`, ""),
		spec("patch-case", randomBase, `
		  {"name": "a", "values": [{"label": "h", "patch": {"HorizonHours": 0.2, "omegaHat": 0.5}},
		                           {"label": "k", "patch": {"policy": {"Kind": "local"}, "omegaHat": 0.6}},
		                           {"label": "mean", "patch": {"rate": {"MEAN": 9}, "omegaHat": 0.7}}]}, `+maxVMs, ""),
		spec("nulls", randomBase, `
		  {"name": "del", "values": [{"label": "vms", "patch": {"maxVMs": null}},
		                             {"label": "mean", "patch": {"rate": {"mean": null}}},
		                             {"label": "check", "patch": {"check": null}},
		                             {"label": "dynamic", "patch": {"policy": {"dynamic": null}}},
		                             {"label": "sigma", "patch": {"infra": {"cpu": {"sigma": null}}}}]}, `+maxVMs, ""),
		spec("map", randomBase, `
		  {"name": "map", "warm": true, "values": [
		    {"label": "add", "patch": {"control": {"perClassFailProb": {"m2.large": 0.3}}}},
		    {"label": "del", "patch": {"control": {"perClassFailProb": {"m1.small": null}}}},
		    {"label": "set", "patch": {"control": {"perClassFailProb": {"m1.small": 0.5}, "acquireFailProb": 0.1}}}]}, `+maxVMs,
			`, "warmStart": {"prefixSec": 120}, "seeds": [1, 2]`),
		spec("pointers", randomBase, `
		  {"name": "check", "values": [{"label": "strict", "patch": {"check": {"strict": true}}},
		                               {"label": "eps", "patch": {"check": {"epsilon": 0.5}}},
		                               {"label": "none", "patch": {}}]},
		  {"name": "sessions", "values": [
		    {"label": "new", "patch": {"rate": {"kind": "sessions", "sessions": {"meanSessionSec": 60, "msgPerSessionSec": 1}}}},
		    {"label": "short", "patch": {"rate": {"sessions": {"meanSessionSec": 30}}}}]},
		  {"name": "merge", "warm": true, "values": [
		    {"label": "a", "patch": {"rate": {"sessions": {"seed": 5}}, "infra": {"cpu": {"theta": 0.5}}}},
		    {"label": "b", "patch": {"rate": {"sessions": {"arrivalPerSec": 2}}, "policy": {"dynamic": false}}},
		    {"label": "c", "patch": {"infra": {"latency": {"mean": 3}}, "policy": {"dynamic": true}}}]}`,
			`, "warmStart": {"prefixSec": 120}, "seeds": [1, 2]`),
		spec("scalar-over-object", randomBase, `
		  {"name": "break", "values": [{"label": "rate", "patch": {"rate": 7}}, {"label": "check", "patch": {"check": true}},
		                               {"label": "none", "patch": {}}]},
		  {"name": "fix", "values": [
		    {"label": "a", "patch": {"rate": {"kind": "constant", "mean": 5}, "check": {"enabled": false}}},
		    {"label": "b", "patch": {"rate": {"mean": 6}, "check": {"strict": true}}}]}`, ""),
		spec("scalar-over-object-fails", randomBase, `
		  {"name": "a", "values": [{"label": "ok", "patch": {"policy": {"kind": "local"}}}, {"label": "bad", "patch": {"rate": 7}}]}`, ""),
		spec("duplicate-patch-members", randomBase, `
		  {"name": "dup", "values": [
		    {"label": "rate", "patch": {"rate": {"mean": 3}, "rate": {"kind": "wave"}}},
		    {"label": "boot", "patch": {"control": {"meanBootSec": 1, "meanBootSec": 2}, "maxVMs": 5, "maxVMs": 6}}]},
		  {"name": "o", "values": [{"label": "half", "patch": {"omegaHat": 0.5}}, {"label": "none", "patch": {}}]}`, ""),
		spec("slices", choicesBase, `
		  {"name": "s", "values": [{"label": "choices", "patch": {"choices": [{"name": "d"}]}},
		                           {"label": "edges", "patch": {"graph": {"edges": [["work", "src"]]}}},
		                           {"label": "pes", "patch": {"graph": {"pes": [{"name": "only"}]}}},
		                           {"label": "none", "patch": {}}]}, `+maxVMs, ""),
		spec("tenants", tenantsBase, `
		  {"name": "t", "values": [
		    {"label": "solo", "patch": {"tenants": [{"name": "solo", "graph": {"pes": [{"name": "x"}]}, "rate": {"mean": 4}}]}},
		    {"label": "pair", "patch": {"tenants": [{"name": "a", "graph": `+graph+`, "rate": {"mean": 4}},
		                                            {"name": "b", "graph": `+graph+`, "policy": {"kind": "global"}}]}},
		    {"label": "none", "patch": {}}]}, `+maxVMs, ""),
		// Arrays of objects replace a slice wholesale. Their elements must
		// name only fields the schema knows, exactly and without nulls, or
		// the patch takes the tree.
		spec("array-elements", choicesBase, `
		  {"name": "c", "values": [
		    {"label": "exact", "patch": {"choices": [{"name": "d", "from": "src", "targets": ["work"]}]}},
		    {"label": "case", "patch": {"choices": [{"Name": "d", "from": "src", "TARGETS": ["work"]}]}},
		    {"label": "null", "patch": {"choices": [{"name": "d", "from": null, "targets": ["work"]}]}},
		    {"label": "null-element", "patch": {"choices": [null, {"name": "e"}]}},
		    {"label": "deep", "patch": {"graph": {"pes": [{"name": "src", "alternates": [{"name": "e", "value": 2, "Cost": 0.1}]},
		                                                {"name": "work", "alternates": [{"name": "full", "value": 1, "cost": null}]}]}}},
		    {"label": "none", "patch": {}}]}, `+maxVMs, ""),
		spec("array-unknown", choicesBase, `
		  {"name": "c", "values": [
		    {"label": "exact", "patch": {"choices": [{"name": "d", "from": "src", "targets": ["work"]}]}},
		    {"label": "unknown", "patch": {"choices": [{"name": "d", "from": "src", "typo": 1}]}}]}, `+maxVMs, ""),
		spec("array-unknown-deep", randomBase, `
		  {"name": "g", "values": [
		    {"label": "exact", "patch": {"graph": {"pes": [{"name": "src", "alternates": [{"name": "e", "value": 2}]}]}}},
		    {"label": "unknown", "patch": {"graph": {"pes": [{"name": "src", "alternates": [{"name": "e", "weight": 2}]}]}}}]}`, ""),
	}
}()

// TestExpandMatchesReference diffs Expand against referenceExpand on every
// named grid, the package's test specs and seeded random specs: every job
// field and every error must match, so journals keyed by the original
// expansion keep hitting.
func TestExpandMatchesReference(t *testing.T) {
	// check reports whether the reference expanded s and whether the two
	// expansions agree.
	check := func(name string, s *sweep.Spec) (expanded, same bool) {
		t.Helper()
		jobs, err := s.Expand()
		ref, refErr := referenceExpand(s)
		diff := sameExpansion(jobs, err, ref, refErr)
		if diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
		return refErr == nil, diff == ""
	}
	for _, name := range experiments.GridNames() {
		for _, replicas := range []int{1, 4} {
			s, err := experiments.NamedGrid(name, experiments.Default(), replicas)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("grid %s x%d", name, replicas), s)
		}
	}
	for i, doc := range append(sweep.TestSpecDocs, edgeSpecDocs...) {
		s, err := sweep.ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("test spec %d (%s)", i, s.Name), s)
	}
	// A spec built in code can carry data after its base or a patch, which
	// ParseSpec refuses. Both expansions refuse it after the base, which
	// Validate parses strictly, and read only a patch's first value. The
	// paper-grid-shaped spec comes as is and with a case-variant patch.
	for _, s := range []*sweep.Spec{
		paperGridShapedSpec(), caseVariantPaperGrid(),
		{Name: "base-trailing", Base: json.RawMessage(randomBase + ` {"seed": 2}`), Seeds: []int64{1, 2}},
		{Name: "patch-trailing", Base: json.RawMessage(randomBase), Seeds: []int64{1, 2},
			Axes: []sweep.Axis{{Name: "a", Values: []sweep.AxisValue{
				{Label: "m", Patch: json.RawMessage(`{"maxVMs": 30} {"maxVMs": 31}`)},
				{Label: "o", Patch: json.RawMessage(`{"omegaHat": 0.5} junk`)}}}}},
	} {
		check(s.Name, s)
	}
	r := rand.New(rand.NewSource(1))
	var expanded, failed int
	for i := 0; i < 300; i++ {
		s := randomSpec(r, i)
		ok, same := check(s.Name, s)
		if ok {
			expanded++
		}
		if !same {
			failed++
		}
		if failed >= 5 {
			t.Fatal("stopping after 5 differing random specs")
		}
	}
	// The draw must not be dominated by specs that fail to expand, or the
	// job comparison above tests little.
	if expanded < 100 {
		t.Fatalf("only %d of 300 random specs expand", expanded)
	}
}

// TestExpandJobsStayCanonical expands every named grid, the fixed specs
// and the random specs, then re-marshals each job's scenario and prefix:
// each must still encode to the bytes its job recorded. Jobs share every
// value their patches leave alone, so a decode that wrote through a
// pointee or slice an earlier job shares would show here.
func TestExpandJobsStayCanonical(t *testing.T) {
	var specs []*sweep.Spec
	for _, name := range experiments.GridNames() {
		for _, replicas := range []int{1, 4} {
			s, err := experiments.NamedGrid(name, experiments.Default(), replicas)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	for _, doc := range append(sweep.TestSpecDocs, edgeSpecDocs...) {
		s, err := sweep.ParseSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		specs = append(specs, randomSpec(r, i))
	}
	var checked int
	for _, s := range specs {
		jobs, err := s.Expand()
		if err != nil {
			continue
		}
		for _, j := range jobs {
			if b, err := json.Marshal(j.Scenario); err != nil || !bytes.Equal(b, j.Canonical) {
				t.Fatalf("%s: job %s now encodes to\n%s (%v)\nrecorded\n%s", s.Name, j.ID, b, err, j.Canonical)
			}
			if s.WarmStart == nil {
				continue
			}
			if b, err := json.Marshal(j.Prefix); err != nil || !bytes.Equal(b, j.PrefixCanonical) {
				t.Fatalf("%s: job %s prefix now encodes to\n%s (%v)\nrecorded\n%s", s.Name, j.ID, b, err, j.PrefixCanonical)
			}
		}
		checked += len(jobs)
	}
	if checked < 1000 {
		t.Fatalf("only %d jobs checked", checked)
	}
}

// FuzzExpand feeds arbitrary spec documents through ParseSpec and both
// expansions: they must agree job for job, or both fail with the same
// error, and neither may panic.
func FuzzExpand(f *testing.F) {
	for _, doc := range append(sweep.TestSpecDocs, edgeSpecDocs...) {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`{"name": "n", "base": ` + randomBase + `, "axes": [
	  {"name": "a", "values": [{"label": "x", "patch": {"control": {"perClassFailProb": {"m1.small": null}}}},
	                           {"label": "y", "patch": [1]}]},
	  {"name": "b", "warm": true, "values": [{"label": "z", "patch": {"rate": {"mean": null}}}]}],
	  "warmStart": {"prefixSec": 120}}`))
	if doc, err := json.Marshal(paperGridShapedSpec()); err == nil {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := sweep.ParseSpec(data)
		if err != nil {
			return
		}
		n := max(len(s.Seeds), 1)
		for _, ax := range s.Axes {
			n *= len(ax.Values)
		}
		if n > 256 {
			t.Skip("spec expands to more than 256 jobs")
		}
		jobs, err := s.Expand()
		ref, refErr := referenceExpand(s)
		if diff := sameExpansion(jobs, err, ref, refErr); diff != "" {
			t.Fatal(diff)
		}
	})
}

// paperGridShapedSpec is shaped like the benchmark's paper grid: the
// evaluation dataflow under 5 axes (policy, dynamism, variability, rate and
// a replica axis that sets the rate and infra seeds) and 1 seed, 72 jobs.
// Every patch overlays.
func paperGridShapedSpec() *sweep.Spec {
	gs, choices := scenario.FromGraph(dataflow.EvalGraph())
	base, err := json.Marshal(scenario.Scenario{
		Graph:        gs,
		Choices:      choices,
		Rate:         scenario.RateSpec{Kind: "constant", Mean: 2},
		Infra:        scenario.InfraSpec{Kind: "ideal"},
		Policy:       scenario.PolicySpec{Kind: "global"},
		HorizonHours: 10,
		IntervalSec:  60,
		Seed:         7,
		Check:        &scenario.CheckSpec{Enabled: true, Strict: true},
	})
	if err != nil {
		panic(err)
	}
	axis := func(name string, labelPatch ...string) sweep.Axis {
		ax := sweep.Axis{Name: name}
		for i := 0; i+1 < len(labelPatch); i += 2 {
			ax.Values = append(ax.Values, sweep.AxisValue{Label: labelPatch[i], Patch: json.RawMessage(labelPatch[i+1])})
		}
		return ax
	}
	rate := axis("rate")
	for _, m := range []int{2, 5, 10, 20, 35, 50} {
		rate.Values = append(rate.Values, sweep.AxisValue{Label: fmt.Sprint(m), Patch: json.RawMessage(fmt.Sprintf(`{"rate":{"mean":%d}}`, m))})
	}
	return &sweep.Spec{Name: "paper-grid-shaped", Base: base, Seeds: []int64{7}, Axes: []sweep.Axis{
		axis("policy", "local", `{"policy":{"kind":"local"}}`, "global", `{"policy":{"kind":"global"}}`),
		axis("dynamism", "dyn", `{"policy":{"dynamic":true}}`, "nodyn", `{"policy":{"dynamic":false}}`),
		axis("var", "infra", `{"infra":{"kind":"replayed"}}`, "data", `{"rate":{"kind":"wavewalk"}}`,
			"both", `{"infra":{"kind":"replayed"},"rate":{"kind":"wavewalk"}}`),
		rate,
		axis("replica", "r00", `{"rate":{"seed":11},"infra":{"seed":12}}`),
	}}
}

// caseVariantPaperGrid is paperGridShapedSpec with one policy patch that
// spells a member other than by its exact json name, so it takes the tree.
func caseVariantPaperGrid() *sweep.Spec {
	s := paperGridShapedSpec()
	s.Name = "paper-grid-case-variant"
	s.Axes[0].Values[1].Patch = json.RawMessage(`{"policy":{"Kind":"global"}}`)
	return s
}

// TestExpandMergesNoTreeWhenPatchesOverlay: when every patch of a spec
// overlays, Expand resolves every level in struct space and merges no tree
// after the base's, on the paper-grid-shaped spec, every named grid and
// the warm-start test grid; a spec whose patch must take the tree merges
// only the levels it resolves through. TestExpandMatchesReference checks
// the jobs of each.
func TestExpandMergesNoTreeWhenPatchesOverlay(t *testing.T) {
	specs := []*sweep.Spec{paperGridShapedSpec()}
	for _, name := range experiments.GridNames() {
		s, err := experiments.NamedGrid(name, experiments.Default(), 4)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	warm, err := sweep.ParseSpec([]byte(sweep.TestSpecDocs[1]))
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, warm)
	for _, s := range specs {
		jobs, merges, err := s.ExpandCountingMerges()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if merges != 0 {
			t.Errorf("%s: %d trees merged for %d jobs, want 0", s.Name, merges, len(jobs))
		}
	}
	// The case-variant patch sends one value of the first axis down the
	// tree: its level and the levels below it merge, once each.
	_, merges, err := caseVariantPaperGrid().ExpandCountingMerges()
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2 + 2*3 + 2*3*6 + 2*3*6*1; merges != want {
		t.Fatalf("case-variant policy patch: %d trees merged, want %d", merges, want)
	}
}

// benchJobs keeps BenchmarkExpand's result alive.
var benchJobs []sweep.Job

// BenchmarkExpand expands two grids and reports each one's job count, so
// ci.sh can gate allocations per job: fig67, the fig67 named grid at the
// default configuration with 4 replicas (96 jobs), and paper-grid, shaped
// like the benchmark's paper grid (72 jobs).
func BenchmarkExpand(b *testing.B) {
	fig67, err := experiments.NamedGrid("fig67", experiments.Default(), 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name string
		spec *sweep.Spec
	}{{"fig67", fig67}, {"paper-grid", paperGridShapedSpec()}} {
		s := row.spec
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchJobs, err = s.Expand(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(benchJobs)), "jobs/op")
		})
	}
}
