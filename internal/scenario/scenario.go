// Package scenario defines the JSON scenario format shared by the
// command-line tools (cmd/dfsim): a complete description of one simulation
// — the dataflow (with choice groups), the input-rate profile, the
// infrastructure behaviour (ideal, replayed, real CSV traces, failures,
// spot market), the policy, and the objective — and builds a ready-to-run
// engine + scheduler pair from it.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"

	"dynamicdf/internal/cloud"
	"dynamicdf/internal/core"
	"dynamicdf/internal/dataflow"
	"dynamicdf/internal/invariant"
	"dynamicdf/internal/rates"
	"dynamicdf/internal/resilient"
	"dynamicdf/internal/sim"
	"dynamicdf/internal/trace"
	"dynamicdf/internal/workload"
)

// Scenario is the top-level schema.
type Scenario struct {
	Graph   GraphSpec   `json:"graph"`
	Rate    RateSpec    `json:"rate"`
	Infra   InfraSpec   `json:"infra"`
	Policy  PolicySpec  `json:"policy"`
	Spot    SpotSpec    `json:"spot"`
	Control ControlSpec `json:"control"`

	HorizonHours   float64      `json:"horizonHours"`
	IntervalSec    int64        `json:"intervalSec"`
	OmegaHat       float64      `json:"omegaHat"`
	Epsilon        float64      `json:"epsilon"`
	LatencyHatSec  float64      `json:"latencyHatSec"`
	Seed           int64        `json:"seed"`
	MaxVMs         int          `json:"maxVMs"`
	FailureMTBFHrs float64      `json:"failureMTBFHours"`
	Choices        []ChoiceSpec `json:"choices"`
	Audit          bool         `json:"audit"`
	// Check enables the runtime invariant checker. A pointer with omitempty
	// keeps the canonical JSON of scenarios that do not use it unchanged, so
	// existing sweep-journal cache keys stay valid.
	Check *CheckSpec `json:"check,omitempty"`
	// Tenants declares a multi-tenant run: N dataflows, each with its own
	// graph, rate, Ω floor and priority, sharing one fleet under a fairness
	// arbiter (see tenants.go). Mutually exclusive with the top-level graph
	// block; omitempty keeps single-tenant canonical JSON unchanged.
	Tenants []TenantSpec `json:"tenants,omitempty"`
}

// GraphSpec mirrors the canonical dataflow JSON inline.
type GraphSpec struct {
	DefaultMsgBytes int         `json:"defaultMsgBytes"`
	PEs             []PESpec    `json:"pes"`
	Edges           [][2]string `json:"edges"`
}

// PESpec declares one PE.
type PESpec struct {
	Name       string    `json:"name"`
	MsgBytes   int       `json:"msgBytes"`
	Alternates []AltSpec `json:"alternates"`
}

// AltSpec declares one alternate.
type AltSpec struct {
	Name        string  `json:"name"`
	Value       float64 `json:"value"`
	Cost        float64 `json:"cost"`
	Selectivity float64 `json:"selectivity"`
}

// ChoiceSpec declares a choice group by PE names.
type ChoiceSpec struct {
	Name    string   `json:"name"`
	From    string   `json:"from"`
	Targets []string `json:"targets"`
}

// RateSpec selects the input profile. Kind "wavewalk" superimposes the
// paper's periodic wave on a random walk (the §8.1 data-variability
// workload): the two profiles are averaged so the mean stays at Mean. Kind
// "sessions" drives the rate from a session-population generator
// (internal/workload): open/closed user models with diurnal, burst and
// flash-crowd modulation.
type RateSpec struct {
	Kind      string  `json:"kind"` // constant | wave | randomwalk | wavewalk | sessions
	Mean      float64 `json:"mean"`
	Amplitude float64 `json:"amplitude"`
	PeriodSec int64   `json:"periodSec"`
	StepFrac  float64 `json:"stepFrac"`
	Seed      int64   `json:"seed"`
	// Sessions parameterizes kind "sessions". Its Seed falls back to the
	// rate's Seed when zero.
	Sessions *workload.Spec `json:"sessions,omitempty"`
}

// InfraSpec selects the performance provider.
type InfraSpec struct {
	Kind string `json:"kind"` // ideal | replayed | csvdir
	Seed int64  `json:"seed"`
	Dir  string `json:"dir"`
	// CPU, Latency and Bandwidth override the replayed provider's generator
	// parameters (kind "replayed" only; nil keeps the package defaults).
	// Pointers with omitempty keep the canonical JSON of scenarios that do
	// not use them unchanged, so existing sweep-journal cache keys stay
	// valid. This is the slot calibration writes fitted parameters into.
	CPU       *GenSpec `json:"cpu,omitempty"`
	Latency   *GenSpec `json:"latency,omitempty"`
	Bandwidth *GenSpec `json:"bandwidth,omitempty"`
}

// GenSpec mirrors trace.GenConfig in the scenario schema: the OU/regime/
// diurnal generator parameters for one performance dimension.
type GenSpec struct {
	Mean       float64 `json:"mean"`
	Theta      float64 `json:"theta"`
	Sigma      float64 `json:"sigma"`
	RegimeProb float64 `json:"regimeProb"`
	RegimeAmp  float64 `json:"regimeAmp"`
	DiurnalAmp float64 `json:"diurnalAmp"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	PeriodSec  int64   `json:"periodSec"`
}

// GenConfig converts the spec to the generator's config type.
func (g *GenSpec) GenConfig() trace.GenConfig {
	return trace.GenConfig{
		Mean: g.Mean, Theta: g.Theta, Sigma: g.Sigma,
		RegimeProb: g.RegimeProb, RegimeAmp: g.RegimeAmp,
		DiurnalAmp: g.DiurnalAmp, Min: g.Min, Max: g.Max,
		PeriodSec: g.PeriodSec,
	}
}

// GenSpecFrom converts a generator config into its scenario representation.
func GenSpecFrom(c trace.GenConfig) *GenSpec {
	return &GenSpec{
		Mean: c.Mean, Theta: c.Theta, Sigma: c.Sigma,
		RegimeProb: c.RegimeProb, RegimeAmp: c.RegimeAmp,
		DiurnalAmp: c.DiurnalAmp, Min: c.Min, Max: c.Max,
		PeriodSec: c.PeriodSec,
	}
}

// PolicySpec selects the scheduler.
type PolicySpec struct {
	Kind    string `json:"kind"` // local | global | bruteforce
	Dynamic *bool  `json:"dynamic"`
	Static  bool   `json:"static"`
	UseSpot bool   `json:"useSpot"`
	// Resilient wraps the policy in the resilient middleware (retries,
	// per-class circuit breaking, class fallback); see internal/resilient.
	Resilient bool `json:"resilient"`
	// DegradeOmega arms the middleware's degradation hook (cheapest
	// alternates while capacity is pending or broken and Omega sits below
	// this floor). Only meaningful with Resilient.
	DegradeOmega float64 `json:"degradeOmega"`
}

// ControlSpec injects control-plane faults (see sim.ControlFaults): VM boot
// delays, transient acquisition failures (optionally bursty or per-class),
// and monitoring degradation. The zero value leaves the control plane ideal.
type ControlSpec struct {
	// MeanBootSec > 0 enables provisioning delays; MaxBootSec caps them
	// (default 4x the mean).
	MeanBootSec int64 `json:"meanBootSec"`
	MaxBootSec  int64 `json:"maxBootSec"`
	// AcquireFailProb is the baseline per-attempt capacity-error
	// probability; PerClassFailProb overrides it per VM class name.
	AcquireFailProb  float64            `json:"acquireFailProb"`
	PerClassFailProb map[string]float64 `json:"perClassFailProb"`
	// BurstEverySec > 0 adds one error burst per window of BurstLenSec
	// during which attempts fail with BurstFailProb (default 0.95).
	BurstEverySec int64   `json:"burstEverySec"`
	BurstLenSec   int64   `json:"burstLenSec"`
	BurstFailProb float64 `json:"burstFailProb"`
	// FaultFreeSec keeps acquisition reliable before this time, so initial
	// deployment is unaffected.
	FaultFreeSec int64 `json:"faultFreeSec"`
	// MonitorStaleProb drops each probe with this probability (the EWMA
	// keeps its last-known-good value); MonitorNoiseFrac perturbs surviving
	// probes multiplicatively within [1-f, 1+f).
	MonitorStaleProb float64 `json:"monitorStaleProb"`
	MonitorNoiseFrac float64 `json:"monitorNoiseFrac"`
	// Seed decorrelates the fault draws from the scenario seed (defaults to
	// the scenario seed).
	Seed int64 `json:"seed"`
}

// faults converts the spec to the simulator's fault model, or nil when every
// knob is zero.
func (cs ControlSpec) faults(fallbackSeed int64) *sim.ControlFaults {
	cf := &sim.ControlFaults{Seed: cs.Seed}
	if cf.Seed == 0 {
		cf.Seed = fallbackSeed
	}
	any := false
	if cs.MeanBootSec > 0 {
		cf.Provisioning = &sim.ProvisioningFaults{MeanBootSec: cs.MeanBootSec, MaxBootSec: cs.MaxBootSec}
		any = true
	}
	if cs.AcquireFailProb > 0 || len(cs.PerClassFailProb) > 0 || cs.BurstEverySec > 0 {
		cf.Acquisition = &sim.AcquisitionFaults{
			FailProb:      cs.AcquireFailProb,
			PerClass:      cs.PerClassFailProb,
			BurstEverySec: cs.BurstEverySec,
			BurstLenSec:   cs.BurstLenSec,
			BurstFailProb: cs.BurstFailProb,
			AfterSec:      cs.FaultFreeSec,
		}
		any = true
	}
	if cs.MonitorStaleProb > 0 || cs.MonitorNoiseFrac > 0 {
		cf.Monitoring = &sim.MonitoringFaults{StaleProb: cs.MonitorStaleProb, NoiseFrac: cs.MonitorNoiseFrac}
		any = true
	}
	if !any {
		return nil
	}
	return cf
}

// CheckSpec configures the per-step invariant checker (internal/invariant):
// conservation-style laws asserted over engine state at the end of every
// interval.
type CheckSpec struct {
	// Enabled attaches the checker to the engine.
	Enabled bool `json:"enabled"`
	// Strict aborts the run at the first violation with a typed
	// *invariant.Violation; lenient runs record and count violations.
	Strict bool `json:"strict"`
	// Epsilon overrides the conservation tolerance (<= 0 means
	// invariant.DefaultEpsilon).
	Epsilon float64 `json:"epsilon"`
}

// checker builds the configured checker, or nil when checking is off.
func (cs *CheckSpec) checker() *invariant.Checker {
	if cs == nil || !cs.Enabled {
		return nil
	}
	return &invariant.Checker{Epsilon: cs.Epsilon, Strict: cs.Strict}
}

// SpotSpec adds a preemptible market.
type SpotSpec struct {
	PriceFraction    float64 `json:"priceFraction"`
	PreemptMTBFHours float64 `json:"preemptMTBFHours"`
}

// Parse decodes a scenario from JSON: one document, with no unknown field
// and nothing but white space after it.
func Parse(r io.Reader) (*Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := ExpectEOF(dec); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &sc, nil
}

// Built holds everything needed to run the scenario.
type Built struct {
	// Engine runs the scenario from t=0; nil when the scenario was only
	// lowered (Lower).
	Engine    *sim.Engine
	Scheduler sim.Scheduler
	Objective core.Objective
	Graph     *dataflow.Graph
	// Checker is the invariant checker attached to Engine (nil unless the
	// scenario's check block enabled it).
	Checker *invariant.Checker
	// Config is the exact sim.Config the Engine was built from, so callers
	// can restore a checkpoint of an identical scenario onto it
	// (sim.Restore) instead of stepping Engine from zero.
	Config sim.Config
	// TenantNames and TenantObjectives describe the tenants of a
	// multi-tenant scenario in declaration order (nil for single-tenant
	// runs). TenantObjectives[i] carries tenant i's own Θ calibration.
	TenantNames      []string
	TenantObjectives []core.Objective
}

// Build validates the scenario and constructs the engine and scheduler.
func (sc *Scenario) Build() (*Built, error) { return sc.BuildWith(nil) }

// BuildWith is Build drawing a replayed infrastructure from pools, the memo
// of the campaign the scenario runs in: scenarios that replay the same
// config share one read-only provider. A nil pools generates afresh, as
// Build does. The run is the same either way. It is Lower followed by
// sim.NewEngine on the lowered Config.
func (sc *Scenario) BuildWith(pools *trace.Pools) (*Built, error) {
	b, err := sc.Lower(pools)
	if err != nil {
		return nil, err
	}
	if b.Engine, err = sim.NewEngine(b.Config); err != nil {
		return nil, err
	}
	return b, nil
}

// Lower validates the scenario and lowers it onto a sim.Config, a scheduler
// and its objectives, drawing replayed infrastructure from pools as
// BuildWith does, but builds no engine: Built.Engine is nil. A caller that
// restores a checkpoint (sim.Restore) or sets engine options on the Config
// builds its one engine from Built.Config itself.
func (sc *Scenario) Lower(pools *trace.Pools) (*Built, error) {
	if len(sc.Tenants) > 0 {
		if len(sc.Graph.PEs) > 0 {
			return nil, fmt.Errorf("scenario: graph and tenants blocks are mutually exclusive")
		}
		return sc.lowerTenants(pools)
	}
	g, err := buildGraph(sc.Graph, sc.Choices)
	if err != nil {
		return nil, err
	}

	prof, err := sc.profile()
	if err != nil {
		return nil, err
	}
	perf, err := sc.perf(pools)
	if err != nil {
		return nil, err
	}

	hours := sc.HorizonHours
	if hours == 0 {
		hours = 4
	}
	obj, err := sc.objective(g, prof.Mean(), hours)
	if err != nil {
		return nil, err
	}

	sched, err := sc.scheduler(obj, hours)
	if err != nil {
		return nil, err
	}

	menu, failures, preemption, err := sc.platform()
	if err != nil {
		return nil, err
	}
	interval := sc.IntervalSec
	if interval == 0 {
		interval = 60
	}
	checker := sc.Check.checker()
	cfg := sim.Config{
		Graph:         g,
		Menu:          menu,
		Perf:          perf,
		Inputs:        map[int]rates.Profile{g.Inputs()[0]: prof},
		IntervalSec:   interval,
		HorizonSec:    int64(hours * 3600),
		Seed:          sc.Seed,
		MaxVMs:        sc.MaxVMs,
		Failures:      failures,
		Preemption:    preemption,
		ControlFaults: sc.Control.faults(sc.Seed),
		Audit:         sc.Audit,
		OmegaFloor:    obj.OmegaHat,
		Checker:       checker,
	}
	return &Built{Scheduler: sched, Objective: obj, Graph: g, Checker: checker, Config: cfg}, nil
}

// buildGraph constructs one dataflow graph from its spec form.
func buildGraph(gs GraphSpec, choices []ChoiceSpec) (*dataflow.Graph, error) {
	b := dataflow.NewBuilder()
	if gs.DefaultMsgBytes > 0 {
		b.DefaultMsgBytes(gs.DefaultMsgBytes)
	}
	addGraphSpec(b, gs, choices, "")
	return b.Build()
}

// addGraphSpec lowers one graph spec onto a (possibly shared) builder. With
// a non-empty prefix every PE and choice name is namespaced "prefix<name>"
// and the spec's DefaultMsgBytes is applied per PE, so multiple tenants'
// graphs compose onto one builder without collisions.
func addGraphSpec(b *dataflow.Builder, gs GraphSpec, choices []ChoiceSpec, prefix string) {
	for _, pe := range gs.PEs {
		alts := make([]dataflow.Alternate, 0, len(pe.Alternates))
		for _, a := range pe.Alternates {
			alts = append(alts, dataflow.Alt(a.Name, a.Value, a.Cost, a.Selectivity))
		}
		b.AddPE(prefix+pe.Name, alts...)
		mb := pe.MsgBytes
		if mb == 0 && prefix != "" {
			mb = gs.DefaultMsgBytes
		}
		if mb > 0 {
			b.SetMsgBytes(prefix+pe.Name, mb)
		}
	}
	for _, e := range gs.Edges {
		b.Connect(prefix+e[0], prefix+e[1])
	}
	for _, ch := range choices {
		targets := make([]string, len(ch.Targets))
		for i, t := range ch.Targets {
			targets[i] = prefix + t
		}
		b.AddChoice(prefix+ch.Name, prefix+ch.From, targets...)
	}
}

// platform assembles the VM menu and failure models shared by the single-
// and multi-tenant build paths. A negative fault-model field is an error:
// zero means "off", and a negative MTBF would make every VM immortal.
func (sc *Scenario) platform() (*cloud.Menu, sim.FailureModel, sim.FailureModel, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"failureMTBFHours", sc.FailureMTBFHrs},
		{"spot.priceFraction", sc.Spot.PriceFraction},
		{"spot.preemptMTBFHours", sc.Spot.PreemptMTBFHours},
	} {
		if f.v < 0 {
			return nil, nil, nil, fmt.Errorf("scenario: %s %v must not be negative", f.name, f.v)
		}
	}
	classes := cloud.AWS2013Classes()
	var preemption sim.FailureModel
	if sc.Spot.PriceFraction > 0 {
		if sc.Spot.PriceFraction >= 1 {
			return nil, nil, nil, fmt.Errorf("scenario: spot price fraction %v must be in (0,1)", sc.Spot.PriceFraction)
		}
		classes = cloud.WithSpotMarket(classes, sc.Spot.PriceFraction)
		mtbf := sc.Spot.PreemptMTBFHours
		if mtbf == 0 {
			mtbf = 1
		}
		preemption = sim.ExponentialFailures{MTBFSec: int64(mtbf * 3600), Seed: sc.Seed + 1}
	}
	var failures sim.FailureModel
	if sc.FailureMTBFHrs > 0 {
		failures = sim.ExponentialFailures{MTBFSec: int64(sc.FailureMTBFHrs * 3600), Seed: sc.Seed}
	}
	return cloud.MustMenu(classes), failures, preemption, nil
}

func (sc *Scenario) profile() (rates.Profile, error) {
	return sc.Rate.profile(sc.IntervalSec)
}

// profile builds the rate spec's input profile. intervalSec is the
// scenario's adaptation interval (0 means the 60s default); the wavewalk
// kind steps its random walk at that cadence.
func (r RateSpec) profile(intervalSec int64) (rates.Profile, error) {
	switch r.Kind {
	case "constant", "":
		return rates.NewConstant(r.Mean)
	case "wave":
		period := r.PeriodSec
		if period == 0 {
			period = 1800
		}
		return rates.NewWave(r.Mean, r.Amplitude, period)
	case "randomwalk":
		step := r.StepFrac
		if step == 0 {
			step = 0.1
		}
		return rates.NewRandomWalk(r.Mean, step, 60, r.Seed)
	case "wavewalk":
		period := r.PeriodSec
		if period == 0 {
			period = 1800
		}
		amp := r.Amplitude
		if amp == 0 {
			amp = 0.4 * r.Mean
		}
		w, err := rates.NewWave(r.Mean, amp, period)
		if err != nil {
			return nil, err
		}
		// Start at the trough so a static deployment provisions below the
		// rates that arrive later (as in the experiments package).
		w.PhaseSec = 3 * period / 4
		step := r.StepFrac
		if step == 0 {
			step = 0.08
		}
		interval := intervalSec
		if interval == 0 {
			interval = 60
		}
		rw, err := rates.NewRandomWalk(r.Mean, step, interval, r.Seed)
		if err != nil {
			return nil, err
		}
		return &wavewalk{a: w, b: rw}, nil
	case "sessions":
		if r.Sessions == nil {
			return nil, fmt.Errorf("scenario: rate kind sessions needs a sessions block")
		}
		spec := *r.Sessions
		if spec.Seed == 0 {
			spec.Seed = r.Seed
		}
		return workload.New(spec)
	default:
		return nil, fmt.Errorf("scenario: unknown rate kind %q", r.Kind)
	}
}

// wavewalk averages a wave and a random walk so periodic and stochastic
// variation are both present while the mean stays put.
type wavewalk struct{ a, b rates.Profile }

func (m *wavewalk) Rate(sec int64) float64 { return (m.a.Rate(sec) + m.b.Rate(sec)) / 2 }
func (m *wavewalk) Mean() float64          { return (m.a.Mean() + m.b.Mean()) / 2 }
func (m *wavewalk) Name() string           { return "wave+walk" }

// perf builds the infrastructure provider. A replayed one comes from pools;
// a csvdir one writes its loaded traces into a provider of its own, so it is
// never shared.
func (sc *Scenario) perf(pools *trace.Pools) (trace.Provider, error) {
	switch sc.Infra.Kind {
	case "ideal", "":
		return trace.NewIdeal(), nil
	case "replayed":
		cfg := trace.ReplayedConfig{Seed: sc.Infra.Seed}
		if sc.Infra.CPU != nil {
			cfg.CPU = sc.Infra.CPU.GenConfig()
			if err := cfg.CPU.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: infra cpu: %w", err)
			}
		}
		if sc.Infra.Latency != nil {
			cfg.Latency = sc.Infra.Latency.GenConfig()
			if err := cfg.Latency.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: infra latency: %w", err)
			}
		}
		if sc.Infra.Bandwidth != nil {
			cfg.Bandwidth = sc.Infra.Bandwidth.GenConfig()
			if err := cfg.Bandwidth.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: infra bandwidth: %w", err)
			}
		}
		return pools.Replayed(cfg)
	case "csvdir":
		pool, err := trace.LoadDir(sc.Infra.Dir)
		if err != nil {
			return nil, err
		}
		return trace.NewReplayedFromSeries(pool, nil, nil, sc.Infra.Seed)
	default:
		return nil, fmt.Errorf("scenario: unknown infra kind %q", sc.Infra.Kind)
	}
}

func (sc *Scenario) scheduler(obj core.Objective, hours float64) (sim.Scheduler, error) {
	dynamic := true
	if sc.Policy.Dynamic != nil {
		dynamic = *sc.Policy.Dynamic
	}
	var sched sim.Scheduler
	var err error
	switch sc.Policy.Kind {
	case "local":
		sched, err = core.NewHeuristic(core.Options{
			Strategy: core.Local, Dynamic: dynamic, Adaptive: !sc.Policy.Static,
			Objective: obj, UseSpot: sc.Policy.UseSpot})
	case "global", "":
		sched, err = core.NewHeuristic(core.Options{
			Strategy: core.Global, Dynamic: dynamic, Adaptive: !sc.Policy.Static,
			Objective: obj, UseSpot: sc.Policy.UseSpot})
	case "bruteforce":
		sched, err = core.NewBruteForce(obj, hours)
	default:
		return nil, fmt.Errorf("scenario: unknown policy kind %q", sc.Policy.Kind)
	}
	if err != nil {
		return nil, err
	}
	if sc.Policy.Resilient {
		sched = resilient.Wrap(sched, resilient.Config{
			Seed: sc.Seed, DegradeOmega: sc.Policy.DegradeOmega})
	}
	return sched, nil
}
