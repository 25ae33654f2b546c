// Package sweep is the campaign engine between the simulator and its
// consumers: it expands a sweep spec — a base scenario template crossed
// with parameter axes and replica seeds — into content-addressed jobs,
// executes them on a bounded worker pool with per-job isolation and
// cooperative cancellation, caches completed results in a crash-safe JSONL
// journal keyed by a canonical scenario hash (so a resumed campaign re-runs
// only the missing jobs), and aggregates replicas into mean/P50/P95 rows
// for Theta, Omega, utilization, and cost. cmd/dfserve exposes it over
// HTTP; dfbench -sweep drives it from the command line.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"dynamicdf/internal/scenario"
)

// SchemaVersion names the simulator semantics a cached result depends on.
// It is folded into every job key, so bumping it — whenever an engine,
// policy, or scenario-schema change alters what a run would produce —
// invalidates all previously journaled results at once.
const SchemaVersion = "sweep/v1"

// MaxJobs caps a single spec's expansion as a guard against accidental
// combinatorial explosions.
const MaxJobs = 100000

// Spec describes one campaign: a base scenario document, parameter axes
// whose values are RFC 7386 merge patches over that document, and the
// replica seeds. Expansion is the full cartesian product axes x seeds.
type Spec struct {
	// Name labels the campaign in reports and service listings.
	Name string `json:"name"`
	// Base is the scenario template (see internal/scenario for the schema).
	Base json.RawMessage `json:"base"`
	// Axes are crossed in order; each value patches the base document.
	Axes []Axis `json:"axes"`
	// Seeds are the replica seeds; each grid point runs once per seed and
	// the replicas aggregate into one row. Empty defaults to the base
	// scenario's seed.
	Seeds []int64 `json:"seeds"`
	// WarmStart, when set, lets jobs that differ only along warm axes share
	// a checkpointed prefix run instead of each simulating from zero.
	WarmStart *WarmStartSpec `json:"warmStart,omitempty"`
}

// WarmStartSpec configures prefix sharing. Jobs whose resolved scenarios
// agree on everything except warm-axis patches share one prefix run: the
// prefix scenario (base + non-warm patches + seed) is simulated for
// PrefixSec, checkpointed, and each job of the group forks from the
// snapshot. Correctness requires warm axes to be prefix-neutral — their
// patches must not change behaviour before PrefixSec (e.g. acquisition
// faults gated on a fault-free lead-in at least PrefixSec long). The
// engine verifies nothing about neutrality; declaring an axis warm is the
// spec author's assertion.
type WarmStartSpec struct {
	// PrefixSec is the shared prefix length in simulated seconds; it must
	// be a positive multiple of the scenario interval and less than the
	// horizon.
	PrefixSec int64 `json:"prefixSec"`
}

// Axis is one swept dimension.
type Axis struct {
	// Name labels the axis (unique within the spec).
	Name string `json:"name"`
	// Values are the points along the axis.
	Values []AxisValue `json:"values"`
	// Warm marks the axis's patches as prefix-neutral for warm-starting
	// (see WarmStartSpec); requires the spec to set warmStart.
	Warm bool `json:"warm,omitempty"`
}

// AxisValue is one point of an axis: a label for reports plus the merge
// patch that realizes it.
type AxisValue struct {
	// Label identifies the value in job IDs and aggregated rows (unique
	// within its axis).
	Label string `json:"label"`
	// Patch is an RFC 7386 merge patch applied to the scenario document.
	Patch json.RawMessage `json:"patch"`
}

// Job is one fully resolved simulation of the campaign.
type Job struct {
	// ID is the human-readable coordinate, e.g. "policy=global/rate=20/seed=7".
	ID string
	// Group is the ID without the seed coordinate; replicas share a group.
	Group string
	// Seed is the replica seed.
	Seed int64
	// Scenario is the resolved, validated scenario. It is read-only: the
	// jobs of one expansion share the slices, maps and pointees their
	// patches leave alone, as the merged documents they come from do, and
	// a job may share the whole scenario with its axis level.
	Scenario *scenario.Scenario
	// Canonical is the scenario's canonical JSON (the hashed identity).
	Canonical []byte
	// Key is the content-addressed cache key (hex SHA-256 over
	// SchemaVersion + canonical scenario bytes, which embed seed and
	// policy).
	Key string
	// Prefix is the resolved warm-start prefix scenario — the job with
	// every warm-axis patch dropped — PrefixCanonical its canonical JSON and
	// PrefixKey its content key. Jobs sharing a PrefixKey can fork one
	// checkpointed prefix run. Prefix is read-only and shares values with
	// other jobs' scenarios, as Scenario does. Nil/empty unless the spec
	// sets warmStart.
	Prefix          *scenario.Scenario
	PrefixCanonical []byte
	PrefixKey       string
	// Memo, when set, is the campaign memo the job and its prefix lower
	// through (replayed trace pools and random-walk prefixes), shared by the
	// campaign's jobs. Expand leaves it nil; the runners set it on their own
	// copies of the jobs.
	Memo *scenario.Memo
}

// ParseSpec decodes and validates a sweep spec document: one JSON value,
// with no unknown field and nothing but white space after it.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	if err == nil {
		err = scenario.ExpectEOF(dec)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural invariants without expanding the grid.
func (s *Spec) Validate() error {
	if len(s.Base) == 0 {
		return fmt.Errorf("sweep: spec %q has no base scenario", s.Name)
	}
	if _, err := scenario.ParseBytes(s.Base); err != nil {
		return fmt.Errorf("sweep: spec %q base: %w", s.Name, err)
	}
	axisSeen := map[string]bool{}
	jobs := 1
	warmAxes := false
	for _, ax := range s.Axes {
		if ax.Warm {
			warmAxes = true
		}
		if ax.Name == "" {
			return fmt.Errorf("sweep: spec %q has an unnamed axis", s.Name)
		}
		if strings.ContainsAny(ax.Name, "=/") {
			return fmt.Errorf("sweep: axis name %q contains '=' or '/'", ax.Name)
		}
		if axisSeen[ax.Name] {
			return fmt.Errorf("sweep: duplicate axis %q", ax.Name)
		}
		axisSeen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", ax.Name)
		}
		valSeen := map[string]bool{}
		for _, v := range ax.Values {
			if v.Label == "" {
				return fmt.Errorf("sweep: axis %q has an unlabeled value", ax.Name)
			}
			if strings.ContainsAny(v.Label, "=/") {
				return fmt.Errorf("sweep: axis %q label %q contains '=' or '/'", ax.Name, v.Label)
			}
			if valSeen[v.Label] {
				return fmt.Errorf("sweep: axis %q has duplicate label %q", ax.Name, v.Label)
			}
			valSeen[v.Label] = true
		}
		// Checked before every product, so a wide spec cannot wrap the
		// count past the cap.
		if len(ax.Values) > MaxJobs/jobs {
			return fmt.Errorf("sweep: spec %q expands to more than %d jobs", s.Name, MaxJobs)
		}
		jobs *= len(ax.Values)
	}
	seedSeen := map[int64]bool{}
	for _, seed := range s.Seeds {
		if seedSeen[seed] {
			return fmt.Errorf("sweep: duplicate seed %d", seed)
		}
		seedSeen[seed] = true
	}
	if len(s.Seeds) > MaxJobs/jobs {
		return fmt.Errorf("sweep: spec %q expands to more than %d jobs", s.Name, MaxJobs)
	}
	if warmAxes && s.WarmStart == nil {
		return fmt.Errorf("sweep: spec %q marks axes warm without a warmStart block", s.Name)
	}
	if ws := s.WarmStart; ws != nil {
		base, _ := scenario.ParseBytes(s.Base) // validated above
		interval := base.IntervalSec
		if interval == 0 {
			interval = 60
		}
		hours := base.HorizonHours
		if hours == 0 {
			hours = 4
		}
		horizon := int64(hours * 3600)
		if ws.PrefixSec <= 0 || ws.PrefixSec%interval != 0 {
			return fmt.Errorf("sweep: warm-start prefix %ds must be a positive multiple of interval %ds",
				ws.PrefixSec, interval)
		}
		if ws.PrefixSec >= horizon {
			return fmt.Errorf("sweep: warm-start prefix %ds must be shorter than horizon %ds",
				ws.PrefixSec, horizon)
		}
	}
	return nil
}

// ID derives the campaign's content-addressed identity: the first 12 hex
// digits of the SHA-256 of the spec's canonical JSON. Submitting the same
// spec twice names the same campaign (and therefore the same journal).
func (s *Spec) ID() (string, error) {
	base, err := scenario.ParseBytes(s.Base)
	if err != nil {
		return "", err
	}
	canonical, err := base.CanonicalJSON()
	if err != nil {
		return "", err
	}
	norm := *s
	norm.Base = canonical
	b, err := json.Marshal(&norm)
	if err != nil {
		return "", fmt.Errorf("sweep: spec id: %w", err)
	}
	sum := sha256.Sum256(append([]byte(SchemaVersion+"\n"), b...))
	return hex.EncodeToString(sum[:])[:12], nil
}

// Expand resolves the full grid into jobs, in deterministic order: axes
// vary slowest-first in declaration order, seeds fastest.
//
// The base document and every axis value's patch are decoded once. Each
// axis level, and under warm start each prefix level, keeps the scenario
// its merged document parses to, resolved from the parent level's by
// decoding the patch onto a copy of it wherever that provably gives the
// same scenario (see overlay.go); a job is its level's scenario with the
// seed set. When the axis counter advances, only the levels from the
// changed axis on are resolved again. A level's merged tree is built only
// when a job at or below it has no scenario, and is then encoded and parsed
// strictly, as a document read from a file is; the merge is copy-on-write
// and memoized, so levels share every subtree a patch leaves alone and
// sibling levels share their parent's tree.
func (s *Spec) Expand() ([]Job, error) {
	jobs, _, err := s.expand()
	return jobs, err
}

// expand is Expand, and also returns how many trees it merged after the
// base's.
func (s *Spec) expand() ([]Job, int, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		base, err := scenario.ParseBytes(s.Base)
		if err != nil {
			return nil, 0, err
		}
		seeds = []int64{base.Seed}
	}
	seedPatches := make([]interface{}, len(seeds))
	seedLabels := make([]string, len(seeds))
	for i, seed := range seeds {
		seedPatches[i] = map[string]interface{}{"seed": json.Number(strconv.FormatInt(seed, 10))}
		seedLabels[i] = fmt.Sprintf("seed=%d", seed)
	}
	// A patch that fails to decode is reported when the enumeration first
	// reaches it, so errors come in job order.
	n := len(s.Axes)
	total := len(seeds)
	patches := make([][]decodedPatch, n)
	for a, ax := range s.Axes {
		total *= len(ax.Values)
		patches[a] = make([]decodedPatch, len(ax.Values))
		for v, val := range ax.Values {
			patches[a][v] = decodePatch(val.Patch)
		}
	}

	// docs[a] is the base merged with the current values of axes 0..a-1,
	// prefixes[a] the same with warm axes left out, and labels[a] names
	// axis a's current value. Level 0 is parsed from the base tree, not
	// from Base: the tree keeps the last of duplicate members, which a
	// struct decode of Base would merge.
	docs := make([]*level, n+1)
	prefixes := make([]*level, n+1)
	var tree interface{}
	if err := decodeNumbers(s.Base, &tree); err != nil {
		return nil, 0, fmt.Errorf("sweep: spec %q base: %w", s.Name, err)
	}
	merges := 0
	docs[0] = &level{tree: tree, sc: parseTree(tree), merges: &merges}
	prefixes[0] = docs[0]
	labels := make([]string, n)
	idx := make([]int, n)
	jobs := make([]Job, 0, total)
	for changed := 0; ; {
		for a := changed; a < n; a++ {
			ax, v := s.Axes[a], idx[a]
			p := &patches[a][v]
			if p.err != nil {
				return nil, 0, fmt.Errorf("sweep: axis %q value %q: merge patch: %w", ax.Name, ax.Values[v].Label, p.err)
			}
			docs[a+1] = docs[a].apply(p)
			switch {
			case s.WarmStart == nil || ax.Warm:
				prefixes[a+1] = prefixes[a]
			case prefixes[a] == docs[a]:
				// No warm axis so far: the prefix level is the job's.
				prefixes[a+1] = docs[a+1]
			default:
				// The prefix identity is the job with warm-axis patches
				// dropped: jobs differing only along warm axes converge on
				// one prefix document.
				prefixes[a+1] = prefixes[a].apply(p)
			}
			labels[a] = ax.Name + "=" + ax.Values[v].Label
		}
		group := strings.Join(labels, "/")
		for i, seed := range seeds {
			id := seedLabels[i]
			if group != "" {
				id = group + "/" + id
			}
			r, err := docs[n].resolve(i, seed, seedPatches[i], id, "")
			if err != nil {
				return nil, 0, err
			}
			job := Job{ID: id, Group: group, Seed: seed, Scenario: r.sc, Canonical: r.canonical, Key: r.key}
			if s.WarmStart != nil {
				p, err := prefixes[n].resolve(i, seed, seedPatches[i], id, " prefix")
				if err != nil {
					return nil, 0, err
				}
				job.Prefix, job.PrefixCanonical, job.PrefixKey = p.sc, p.canonical, p.key
			}
			jobs = append(jobs, job)
		}
		// Advance the mixed-radix axis counter, fastest at the end.
		a := n - 1
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
		changed = a
	}
	keySeen := make(map[string]string, len(jobs))
	for _, j := range jobs {
		if prev, dup := keySeen[j.Key]; dup {
			return nil, 0, fmt.Errorf("sweep: jobs %q and %q resolve to the same scenario (key %s)", prev, j.ID, j.Key)
		}
		keySeen[j.Key] = j.ID
	}
	return jobs, merges, nil
}

// level is one axis level of an expansion: the base document merged with
// the patches of the axes so far, and the scenario that document parses
// to.
type level struct {
	// parent and patch make the level's tree, the parent's tree merged with
	// patch, until tree first builds it; the base level has its tree from
	// the start.
	parent *level
	patch  *decodedPatch
	tree   interface{}
	// sc is the strict parse of the tree's encoding, or nil where the
	// level's jobs are resolved from its tree instead: the base tree does
	// not parse or spells a member other than by its field's exact json
	// name (see exactNames), or a patch on the way to the level could not be
	// overlaid.
	sc *scenario.Scenario
	// resolved holds the level's jobs by seed index as resolve makes them:
	// the jobs that differ only along warm axes share a prefix level.
	resolved []resolvedJob
	// merges counts the trees the expansion merged.
	merges *int
}

// resolvedJob is a level's scenario for one seed, its canonical bytes and
// its key.
type resolvedJob struct {
	sc        *scenario.Scenario
	canonical []byte
	key       string
}

// apply returns the level after patch p, with its scenario overlaid in
// struct space where the parent has one and p allows that. Its tree is
// left to build on first need.
func (l *level) apply(p *decodedPatch) *level {
	if p.empty {
		return l
	}
	next := &level{parent: l, patch: p, merges: l.merges}
	if l.sc != nil && p.encoded != nil {
		next.sc = overlay(l.sc, p.tree.(map[string]interface{}), p.encoded)
	}
	return next
}

// doc returns the level's merged tree, merging it, and any parent's not
// merged yet, on the first call.
func (l *level) doc() interface{} {
	if l.parent != nil {
		l.tree = merge(l.parent.doc(), l.patch.tree)
		l.parent, l.patch = nil, nil
		*l.merges++
	}
	return l.tree
}

// resolve returns the level's job for seeds[i]: its scenario with the seed
// set, that scenario's canonical bytes and its key, made on the level's
// first call for i. A level without a scenario splices seedPatch into its
// tree, encodes the result once and parses it strictly, so a parse error is
// the one the same document read from a file gives, prefixed with the job
// id and what.
func (l *level) resolve(i int, seed int64, seedPatch interface{}, id, what string) (resolvedJob, error) {
	if i < len(l.resolved) {
		return l.resolved[i], nil
	}
	sc := l.sc
	switch {
	case sc == nil:
		b, err := json.Marshal(merge(l.doc(), seedPatch))
		if err != nil {
			return resolvedJob{}, err
		}
		if sc, err = scenario.ParseBytes(b); err != nil {
			return resolvedJob{}, fmt.Errorf("sweep: job %s%s: %w", id, what, err)
		}
	case sc.Seed != seed:
		c := *sc
		c.Seed = seed
		sc = &c
	}
	canonical, err := sc.CanonicalJSON()
	if err != nil {
		return resolvedJob{}, err
	}
	r := resolvedJob{sc: sc, canonical: canonical, key: JobKey(canonical)}
	l.resolved = append(l.resolved, r)
	return r, nil
}

// JobKey computes the content-addressed cache key for a canonical scenario
// document: hex SHA-256 over the sweep schema version and the scenario
// bytes. The scenario document embeds everything result-relevant — graph,
// profile, infrastructure, policy, control faults, horizon, and seed — so
// editing any of them (or bumping SchemaVersion) yields a different key,
// while cosmetic spec changes (axis labels, JSON whitespace, key order)
// do not.
func JobKey(canonical []byte) string {
	h := sha256.New()
	h.Write([]byte(SchemaVersion))
	h.Write([]byte{'\n'})
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil))
}

// MergePatch applies an RFC 7386 JSON merge patch to a document: objects
// merge recursively, nulls delete members, and every other patch value
// replaces the target wholesale. Numbers pass through as json.Number, so
// 64-bit seeds survive unmangled. Target and patch must each be one JSON
// value.
func MergePatch(target, patch []byte) ([]byte, error) {
	if len(bytes.TrimSpace(patch)) == 0 {
		return target, nil
	}
	var p interface{}
	if err := decodeNumbers(patch, &p); err != nil {
		return nil, fmt.Errorf("merge patch: %w", err)
	}
	var doc interface{}
	// A non-object patch replaces the whole document, so only an object
	// patch reads its target.
	if _, ok := p.(map[string]interface{}); ok && len(bytes.TrimSpace(target)) > 0 {
		if err := decodeNumbers(target, &doc); err != nil {
			return nil, fmt.Errorf("merge target: %w", err)
		}
	}
	return json.Marshal(merge(doc, p))
}

// decodedPatch is a merge patch decoded once, to be applied many times.
type decodedPatch struct {
	tree interface{}
	// encoded is tree as JSON where it may be decoded onto a level's
	// scenario (see overlayable), and nil where it may not.
	encoded []byte
	empty   bool // a blank patch leaves the document as it is
	err     error
}

// decodePatch decodes an axis value's patch. It reads the first JSON value
// only, as the byte-level merge Expand replaced did: ParseSpec leaves
// exactly one in each patch. A Base with trailing data is refused, by
// Validate's strict parse, before any patch is read.
func decodePatch(raw []byte) decodedPatch {
	if len(bytes.TrimSpace(raw)) == 0 {
		return decodedPatch{empty: true}
	}
	var p decodedPatch
	if p.err = numberDecoder(raw).Decode(&p.tree); p.err != nil {
		return p
	}
	if obj, ok := p.tree.(map[string]interface{}); ok && overlayable(obj, scenarioType) {
		if b, err := json.Marshal(obj); err == nil {
			p.encoded = b
		}
	}
	return p
}

// merge applies a decoded RFC 7386 merge patch to a decoded document. It
// is copy-on-write: new maps are allocated only along the patch's object
// paths, and the result shares every other subtree with doc and patch,
// so neither input is modified and no tree may be modified afterwards.
func merge(doc, patch interface{}) interface{} {
	pObj, ok := patch.(map[string]interface{})
	if !ok {
		return patch
	}
	dObj, _ := doc.(map[string]interface{})
	out := make(map[string]interface{}, len(dObj)+len(pObj))
	for k, v := range dObj {
		out[k] = v
	}
	for k, pv := range pObj {
		if pv == nil {
			delete(out, k)
			continue
		}
		out[k] = merge(dObj[k], pv)
	}
	return out
}

// numberDecoder reads data with numbers as json.Number, so integer fields
// keep full precision through the patch round trip.
func numberDecoder(data []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec
}

// decodeNumbers decodes data, one JSON value, through numberDecoder. Data
// after that value other than white space is an error.
func decodeNumbers(data []byte, v interface{}) error {
	dec := numberDecoder(data)
	if err := dec.Decode(v); err != nil {
		return err
	}
	return scenario.ExpectEOF(dec)
}

// GroupsInOrder returns the distinct job groups in first-occurrence order.
func GroupsInOrder(jobs []Job) []string {
	seen := map[string]bool{}
	var out []string
	for _, j := range jobs {
		if !seen[j.Group] {
			seen[j.Group] = true
			out = append(out, j.Group)
		}
	}
	return out
}
