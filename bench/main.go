// Command bench is the repository benchmark. It generates every input from
// a seed, drives the simulator only through its entry points (scenario
// Build, sim.Engine, sweep.Engine, and a sweep.Server over a fabric.Hub with
// one fabric.Worker), times those calls from outside, and checks the
// outputs. See README.md for the workloads, metrics and bounds.
//
//	go run . -workload scale-adapt -seed 3 -seconds 20   # one workload, end-to-end metrics
//	go run . -workload scale-adapt -trace 1              # the traced run: per-layer metrics
//	go run . -seed 3                                     # every workload, each in its own process
//	go run . -workload paper-grid -repeat 3              # three runs of seed 1, spread against each bound
//	go run . -workload paper-grid -repeat 10 -step 1     # the same over seeds 1..10
//
// Each metric is printed as "workload metric value unit"; the last line of a
// single-workload run is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is non-zero when a correctness check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procs bounds the load: GOMAXPROCS, pool workers, fabric slots and fabric
// connections all equal the 2 cores the benchmark is sized for.
const procs = 2

const (
	// minBatches is the fewest batches an untraced run measures, so that
	// set-up is a median of several.
	minBatches = 4
	// setupTries is how many set-ups an untraced batch times, its own and
	// repeats, where the set-up can run alone. A set-up lasts 20-500 ms, and
	// on a shared host one descheduling can double it, so one sample per
	// batch left the run's median spread 0.25-0.64 over ten runs.
	setupTries = 5
	// maxRunSeconds stops a traced run that still lacks samples, well
	// inside the 180 s a run may take.
	maxRunSeconds = 150
	// refSeed draws the input of batch 0, whatever the run's seed. The
	// outcome metrics are read from that batch, so they repeat exactly on
	// every run of the same code and any change to them shows.
	refSeed = 1
)

// benchWorkload is one seeded input family and how to run a batch of it. A run
// repeats batches until the requested seconds have passed: batch 0 is the
// reference input, batch b > 0 draws its input from the run's seed and b.
type benchWorkload struct {
	name, why string
	full, toy size
	gen       func(seed int64, sz size) ([]byte, error)
	// measure runs one batch, untraced when the probe is nil.
	measure func(doc []byte, p *probe) batch
	// setup repeats the set-up of a batch on doc alone; nil where the
	// set-up cannot run without its batch (the fabric's ends in a submit).
	setup func(doc []byte) error
}

var workloads = []benchWorkload{
	{
		name:    "paper-grid",
		why:     "hundreds of small strict-checked jobs per run on the in-process pool: per-job fixed costs (expand, build, trace generation, checker) dominate",
		full:    size{hours: 10, replicas: 1},
		toy:     size{hours: 1, replicas: 1},
		gen:     paperGridSpec,
		measure: gridBatch,
		setup:   gridSetup,
	},
	{
		name:    "scale-adapt",
		why:     "one run at the paper's scale ceiling, 34 PEs x 10 alternates and hundreds of VMs: the global heuristic's Adapt dominates",
		full:    size{hours: 0.5, graph: [3]int{8, 4, 10}},
		toy:     size{hours: 4, graph: [3]int{1, 1, 3}},
		gen:     scaleAdaptScenario,
		measure: runBatch,
		setup:   runSetup,
	},
	{
		name:    "tenants-scarce",
		why:     "16 session-driven tenants on a VM cap below their demand: a wide DAG where engine steps and fair-share arbitration dominate",
		full:    size{hours: 3, tenants: 16, graph: [3]int{4, 3, 5}},
		toy:     size{hours: 4, tenants: 2, graph: [3]int{2, 2, 3}},
		gen:     tenantsScenario,
		measure: runBatch,
		setup:   runSetup,
	},
	{
		name:    "faults-fabric-warm",
		why:     "a warm fault matrix over loopback HTTP to a fabric coordinator: lease round trips, checkpoint forks and control faults",
		full:    size{hours: 10, replicas: 4},
		toy:     size{hours: 2, replicas: 1},
		gen:     faultMatrixSpec,
		measure: fabricBatch,
	},
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the untraced run's metrics with their regression bounds.
// Set-ups last 0.02 to 0.5 s, so the bound max(10 %, 0.05 s) is a quarter
// or more on most workloads: setup_s takes 0.25, the widest bound the
// benchmark allows. Ω̄ comes from the reference batch and repeats exactly,
// so its bound is a float epsilon. The heap allocation of the reference
// batch repeats within a few parts in ten thousand. Throughput and the
// resident-set peak are not here: on a shared host the first does not
// repeat within a tenth, and the second swings by up to 70 % on one input
// with the collector's timing, so both are per-layer (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"omega", "ratio", "higher", 1e-9},
	{"alloc_mb", "MB", "lower", 0.10},
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
}

func (r *report) absorb(b batch) {
	r.attempted += b.attempted
	r.failed += b.failed
	r.problems = append(r.problems, b.problems...)
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// write prints each metric as "workload metric value unit", then the
// result object as the last line.
func (r *report) write(w io.Writer, name string) error {
	out := map[string]interface{}{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		out[m.name] = map[string]interface{}{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// batchInput generates batch b's input document and the time that took.
func batchInput(w benchWorkload, sz size, seed int64, b int) ([]byte, time.Duration, error) {
	s := seed*1_000_003 + int64(b)
	if b == 0 {
		s = refSeed
	}
	start := time.Now()
	doc, err := w.gen(s, sz)
	return doc, time.Since(start), err
}

// measureRun is the untraced run: batches until seconds have passed, and
// at least minBatches. Set-up is the median over the batches' set-ups and
// their repeats, each corrected for the host's speed around its batch. Ω̄
// and the heap allocation are those of the reference batch.
func measureRun(w benchWorkload, sz size, seed int64, seconds float64) report {
	var r report
	var setups []float64
	var ref batch
	start := time.Now()
	for b := 0; ; b++ {
		doc, gen, err := batchInput(w, sz, seed, b)
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("generate: %v", err))
			return r
		}
		out, slow, err := paced(w, doc)
		r.absorb(out)
		if err != nil {
			r.problems = append(r.problems, err.Error())
		}
		if !r.correct() {
			return r
		}
		setups = append(setups, (gen+out.setup).Seconds()/slow)
		for i := 1; i < setupTries && w.setup != nil; i++ {
			d, err := timedSetup(w, sz, seed, b)
			if err != nil {
				r.problems = append(r.problems, fmt.Sprintf("set-up: %v", err))
				return r
			}
			setups = append(setups, d.Seconds()/slow)
		}
		if b == 0 {
			ref = out
		}
		if time.Since(start).Seconds() >= seconds && b+1 >= minBatches {
			break
		}
	}
	r.metrics = []metric{
		{"setup_s", median(setups), "s"},
		{"omega", ref.quality.omega, "ratio"},
		{"alloc_mb", ref.allocMB, "MB"},
	}
	return r
}

// timedSetup generates batch b's input again and repeats its set-up alone,
// from a collected heap as the batch's own set-up starts.
func timedSetup(w benchWorkload, sz size, seed int64, b int) (time.Duration, error) {
	settle()
	doc, gen, err := batchInput(w, sz, seed, b)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	err = w.setup(doc)
	return gen + time.Since(start), err
}

// paced runs one untraced batch from a collected heap and a reset peak,
// records its heap allocation and resident-set peak in the batch, and
// returns it with the host's slowdown around it (speed.go).
func paced(w benchWorkload, doc []byte) (out batch, slow float64, err error) {
	before, err := hostPace()
	if err != nil {
		return out, 0, err
	}
	settle()
	alloc := heapAllocMB()
	out = w.measure(doc, nil)
	out.allocMB = heapAllocMB() - alloc
	if out.peakMB, err = peakRSSMB(); err != nil {
		return out, 0, err
	}
	after, err := hostPace()
	return out, (before + after) / 2 / paceNominal, err
}

// traceRun is the traced run: each batch runs untraced, then again with
// the probe attached, and both must produce the same outputs.
func traceRun(w benchWorkload, sz size, seed int64, seconds float64, spansPath string) report {
	var r report
	p := newProbe()
	var exact []metric
	start := time.Now()
	for b := 0; ; b++ {
		doc, _, err := batchInput(w, sz, seed, b)
		if err != nil {
			r.problems = append(r.problems, fmt.Sprintf("generate: %v", err))
			return r
		}
		ref, slow, err := paced(w, doc)
		r.absorb(ref)
		if err != nil {
			r.problems = append(r.problems, err.Error())
		}
		if ref.wall > 0 {
			p.add("sim_h_per_s", ref.simHours/ref.wall.Seconds()*slow)
		}
		p.add("peak_rss_mb", ref.peakMB)
		// The untraced pass's Adapt calls count towards the decision
		// percentiles too, which halves the batches a p95 takes.
		for _, a := range ref.adapts {
			p.add("core.adapt_ms", a)
		}
		settle()
		tr := w.measure(doc, p)
		r.absorb(tr)
		if !r.correct() {
			return r
		}
		if ref.digest != tr.digest {
			r.problems = append(r.problems, fmt.Sprintf("batch %d: traced outputs differ from untraced", b))
			return r
		}
		p.add("bench.trace_overhead", (tr.setup+tr.wall).Seconds()/(ref.setup+ref.wall).Seconds())
		if tr.serialMs > 0 {
			p.add("sweep.pool_efficiency", tr.serialMs/(procs*ms(ref.wall)))
		}
		if b == 0 {
			if err := p.tracer.Flush(); err != nil {
				r.problems = append(r.problems, err.Error())
				return r
			}
			exact = p.exactMetrics(tr.quality)
		}
		_, steps := percentile(p.samples["sim.step_ms"], 0.90)
		_, adapts := percentile(p.samples["core.adapt_ms"], 0.95)
		elapsed := time.Since(start).Seconds()
		if elapsed >= seconds && steps && adapts {
			break
		}
		if elapsed > maxRunSeconds {
			r.problems = append(r.problems, "too few engine steps for a p90 or Adapt calls for a p95")
			return r
		}
	}
	if err := p.spans.writeFile(spansPath); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("spans: %v", err))
	}
	r.metrics = append(exact, p.layerMetrics()...)
	return r
}

// exactMetrics are the per-layer metrics that repeat exactly: the
// reference batch's outcome, fleet and decision counts, taken before later
// batches (how many fit depends on speed) add to them.
func (p *probe) exactMetrics(q quality) []metric {
	out := []metric{
		{"theta", q.theta, "ratio"},
		{"omega_shortfall", q.shortfall, "ratio"},
		{"cloud.peak_vms", float64(p.peakVMs), "count"},
		{"cloud.mean_vms", ratio(p.vmSum, p.intervals), "count"},
		{"cloud.core_utilization", ratio(p.used, p.paid), "share"},
	}
	decisions := p.decisions.snapshot()
	for _, kind := range decisionKinds {
		out = append(out, metric{"core.decisions." + kind, float64(decisions[kind]), "count"})
	}
	return out
}

// layerMetrics turns the probe's timing samples and shares into the
// remaining per-layer metrics.
func (p *probe) layerMetrics() []metric {
	s := p.samples
	stepP90, _ := percentile(s["sim.step_ms"], 0.90)
	adaptP95, _ := percentile(s["core.adapt_ms"], 0.95)
	out := []metric{
		{"sim_h_per_s", median(s["sim_h_per_s"]), "h/s"},
		{"scenario.build_ms", median(s["scenario.build_ms"]), "ms"},
		{"trace.gen_ms", median(s["trace.gen_ms"]), "ms"},
		{"core.deploy_ms", median(s["core.deploy_ms"]), "ms"},
		{"core.adapt_ms.p50", median(s["core.adapt_ms"]), "ms"},
		{"core.adapt_ms.p95", adaptP95, "ms"},
		{"core.adapt_ms.max", maxOf(s["core.adapt_ms"]), "ms"},
		{"core.adapt_share", ratio(p.adaptMs, p.runMs), "share"},
		{"sim.step_ms.p50", median(s["sim.step_ms"]), "ms"},
		{"sim.step_ms.p90", stepP90, "ms"},
	}
	stages := map[string]float64{}
	for _, st := range p.profiler.Snapshot() {
		stages[st.Name] = ratio(float64(st.WallNs)/1e6, float64(st.Count))
	}
	for _, name := range stageNames {
		out = append(out, metric{"sim.stage." + name + "_ms", stages[name], "ms"})
	}
	return append(out,
		metric{"sim.checkpoint_ms", median(s["sim.checkpoint_ms"]), "ms"},
		metric{"sim.restore_ms", median(s["sim.restore_ms"]), "ms"},
		metric{"sweep.expand_ms", median(s["sweep.expand_ms"]), "ms"},
		metric{"sweep.job_ms.p50", median(s["sweep.job_ms"]), "ms"},
		metric{"sweep.job_ms.max", maxOf(s["sweep.job_ms"]), "ms"},
		metric{"sweep.pool_efficiency", median(s["sweep.pool_efficiency"]), "share"},
		metric{"sweep.fork_share", median(s["sweep.fork_share"]), "share"},
		metric{"fabric.rtt_share", median(s["fabric.rtt_share"]), "share"},
		metric{"fabric.lease_hit_share", median(s["fabric.lease_hit_share"]), "share"},
		metric{"fabric.requeues", median(s["fabric.requeues"]), "1/job"},
		metric{"fabric.heartbeats", median(s["fabric.heartbeats"]), "1/job"},
		metric{"bench.trace_overhead", median(s["bench.trace_overhead"]), "ratio"},
		// The lowest batch peak: more than half of the batches overshoot it,
		// by up to 70 %, when a collection happens to land late.
		metric{"peak_rss_mb", minOf(s["peak_rss_mb"]), "MB"},
	)
}

// decisionKinds are the decision provenance kinds the policies emit, with
// fair-share rulings split by outcome.
var decisionKinds = []string{"scale-up", "scale-down", "release", "alternate", "fallback", "fair-share-grant", "fair-share-deny"}

// stageNames are the engine's pipeline stages in order.
var stageNames = []string{"provision", "faults", "arrivals", "rehome", "flow", "billing", "observe", "check"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func lookup(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "how long a run measures")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload this many times and print each metric's spread")
	step := flag.Int64("step", 0, "with -repeat, how much the seed grows from one run to the next")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		os.Exit(2)
	}
	selected := workloads
	if *name != "all" {
		w, ok := lookup(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []benchWorkload{w}
	}
	switch {
	case *repeat > 0:
		os.Exit(repeatRuns(selected, *seed, *step, *repeat))
	case *name == "all":
		os.Exit(runAll(selected, *seed))
	}
	w := selected[0]
	var r report
	if *traced == 1 {
		r = traceRun(w, w.full, *seed, *seconds, filepath.Join(*spans, w.name+".json"))
	} else {
		r = measureRun(w, w.full, *seed, *seconds)
	}
	for _, msg := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, msg)
	}
	if err := r.write(os.Stdout, w.name); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}

// child runs this binary on one workload with the current flags, so GC
// state and peak RSS never carry over between workloads.
func child(name string, seed int64) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "seed" && f.Name != "repeat" && f.Name != "step" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd
}

// runAll runs every workload in its own process and relays its output.
func runAll(selected []benchWorkload, seed int64) int {
	code := 0
	for _, w := range selected {
		cmd := child(w.name, seed)
		cmd.Stdout = os.Stdout
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// repeatRuns runs each workload n times, on seeds seed, seed+step, ..., and
// prints, per metric, the median, the quartiles and the spread (IQR /
// median); an end-to-end metric whose spread exceeds a third of its bound is
// flagged, and the exit code is then non-zero.
func repeatRuns(selected []benchWorkload, seed, step int64, n int) int {
	code := 0
	for _, w := range selected {
		values := map[string][]float64{}
		var order []string
		units := map[string]string{}
		for i := 0; i < n; i++ {
			s := seed + step*int64(i)
			out, err := child(w.name, s).Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d failed: %v\n", w.name, s, err)
				code = 1
				continue
			}
			for k, m := range res.Metrics {
				if _, seen := units[k]; !seen {
					order = append(order, k)
					units[k] = m.Unit
				}
				values[k] = append(values[k], m.Value)
			}
		}
		bounds := map[string]float64{}
		for _, m := range endToEnd {
			bounds[m.name] = m.bound
		}
		sort.Strings(order)
		for _, k := range order {
			v := values[k]
			q1, q3 := quartiles(v)
			verdict := ""
			if b, ok := bounds[k]; ok && spread(v) > b/3 {
				verdict = fmt.Sprintf("  spread above a third of bound %g", b)
				code = 1
			}
			fmt.Printf("%s %s median %.6g q1 %.6g q3 %.6g spread %.4f %s%s\n  values %.6g\n",
				w.name, k, median(v), q1, q3, spread(v), units[k], verdict, v)
		}
	}
	return code
}
