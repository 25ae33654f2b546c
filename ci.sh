#!/bin/sh
# Repository gate: a code-size report (non-test Go lines outside bench/,
# printed, not gated), vet, build, the full test suite under the race detector
# plus a shuffled re-run, a race-enabled fabric chaos smoke (coordinator +
# three crash-prone workers, seeded faults, aggregate CSV byte-equal to the
# single-pool baseline), a dfserve end-to-end smoke (start the service,
# submit a 4-job warm-start sweep over HTTP, assert the aggregated output
# incl. /metrics and the prefix fork count, then repeat it through a fabric
# coordinator with one worker and assert CSV byte-equality, shut down), a
# figure golden (dfbench's stdout, the paper's evaluation run as sweep
# grids, must equal the committed bench_results.txt but for the
# scalability table's wall-clock Adapt timings, and its eight -csvdir CSVs
# must be written), a dftrace smoke over the golden fixture, a dfgraph
# smoke (reference graphs validate, a choice-graph demand summary equals
# its golden) and a tracegen smoke, a checkpoint/restore
# byte-determinism smoke, a restored-vs-cold snapshot equality check, a
# single-tenant golden diff against the committed pre-refactor fixture (the
# multi-tenant refactor must stay byte-invisible to single-tenant runs), an
# examples smoke (every example built and run, the multi-tenant one also
# checked for kept Ω floors and fair-share rulings), the dfcalib
# calibration loopback (parameter recovery + digital-twin validation), the
# invariant-conservation, snapshot-decoder, Prometheus-importer,
# sweep-expansion, sweep-spec execution, event-encoder and fabric
# results-wire fuzz passes, the zero-alloc
# guarantees for the disabled-tracer, disabled-checker, and detached
# stage-profiler hot paths plus the steady-state large-DAG and 8-tenant
# steps themselves, attached-profiler and attached-tracer overhead-ratio
# guards, allocation guards on a traced event and a metrics CSV, an
# allocation and adapt/step ratio guard on the global heuristic's Adapt at
# 1000 PEs and on 16 tenants' Adapt against the 8-tenant step, a memory
# and deploy/step ratio guard on its Deploy (Alg. 1's
# planner) on the same DAG, an allocations-per-job guard on expanding the
# fig67 sweep grid and a bytes-per-job guard on expanding a paper-grid-shaped
# one, bytes-per-job guards on running one cold and one forked sweep job, a
# guard on a fabric lease round trip in a large campaign against a small
# one, and an engine-step, per-run, Adapt, Deploy, Expand,
# sweep-job, trace-pool, checkpoint and output-encoder benchmark snapshot
# written to BENCH_step.json. Run from the repo root.
set -eu

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

# Code size, reported and not gated: the non-test Go lines outside bench/
# (a module of its own) and .bench_build/ (the benchmark's build output), so
# that every change reads its line delta the same way.
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)
echo "non-test Go lines outside bench/: $lines"

go vet ./...
# bench/ is a module of its own, so the root vet skips it; it calls
# scenario.Build, sweep.ExecuteJob and trace.NewReplayed, so vet it too.
(cd bench && go vet ./...)
go build ./...
go test -race ./...
go test -race -count=1 ./internal/obs
go test -shuffle=on -count=1 ./...
go test -race -count=1 -run 'TestFabricChaos' ./internal/sweep/fabric
go run ./cmd/dfserve -selftest

# Calibration loopback: generate with known parameters, fit, require
# recovery within tolerance (OU mean 2%, stddev/regime 10%), and validate a
# fitted digital twin end to end.
go run ./cmd/dfcalib -selftest

# Figure golden: the evaluation's tables must not move. dfbench's stdout
# must equal the committed bench_results.txt, except the scalability
# table's two Adapt-timing columns (wall clock), masked on both sides.
# The run also writes the eight plot-ready CSVs (-csvdir), which adds one
# closing line to its output; each CSV must be there and not empty.
mask_adapt_timing() {
    awk '/^Scalability/ { s = 1 } /^$/ { s = 0 } s && NF == 7 && $1 ~ /^[0-9]+$/ { $6 = "-"; $7 = "-" } { print }' "$1"
}
figs=$(mktemp -d)
go run ./cmd/dfbench -csvdir "$figs/csv" > "$figs/out.txt"
{ mask_adapt_timing bench_results.txt; echo "wrote per-figure CSVs to $figs/csv"; } > "$figs/want.txt"
mask_adapt_timing "$figs/out.txt" > "$figs/got.txt"
cmp "$figs/want.txt" "$figs/got.txt" || {
    diff "$figs/want.txt" "$figs/got.txt" >&2
    echo "dfbench output moved from bench_results.txt" >&2
    exit 1
}
for f in fig4 fig5 fig6 fig7 fig8 fig9 ablations fault_tolerance; do
    [ -s "$figs/csv/$f.csv" ] || { echo "dfbench -csvdir wrote no $f.csv" >&2; exit 1; }
done
rm -rf "$figs"

# dftrace smoke: the golden capture must replay, render, and self-diff clean.
go run ./cmd/dftrace cmd/dftrace/testdata/golden.ndjson > /dev/null
go run ./cmd/dftrace diff cmd/dftrace/testdata/golden.ndjson cmd/dftrace/testdata/golden.ndjson > /dev/null

# dfgraph and tracegen smoke: every reference graph dfgraph emits must
# validate, and the demand summary of the committed choice-graph fixture
# must equal its golden (the summary follows the default route: 10.00
# cores at 10 msg/s, where duplicating onto both choice targets reads
# 53.00). tracegen must characterize a short CPU trace.
dfg=$(mktemp -d)
go build -o "$dfg/dfgraph" ./cmd/dfgraph
for name in fig1 eval layered; do
    "$dfg/dfgraph" -emit "$name" > "$dfg/$name.json"
    "$dfg/dfgraph" -validate "$dfg/$name.json" > /dev/null
done
"$dfg/dfgraph" -validate cmd/dfgraph/testdata/choice.json > "$dfg/choice.out"
cmp cmd/dfgraph/testdata/choice.golden "$dfg/choice.out" || {
    diff cmd/dfgraph/testdata/choice.golden "$dfg/choice.out" >&2
    echo "dfgraph's choice-graph summary moved from its golden" >&2
    exit 1
}
go run ./cmd/tracegen -kind cpu -samples 200 -stats > /dev/null
rm -rf "$dfg"

# Checkpoint determinism smoke: a run restored from a mid-run state/v1
# snapshot must continue byte-identically to the uninterrupted run — same
# metrics CSV, same audit log, and a trace that is exactly the byte tail of
# the cold run's. The checkpointing run itself must not be perturbed: its
# audit (with -audit on, so the snapshot carries the prefix entries) equals
# the cold run's too.
ckpt=$(mktemp -d)
go run ./cmd/dfsim -example > "$ckpt/sc.json"
go run ./cmd/dfsim -config "$ckpt/sc.json" \
    -csv "$ckpt/cold.csv" -audit "$ckpt/cold.jsonl" -trace "$ckpt/cold.ndjson" > /dev/null
go run ./cmd/dfsim -config "$ckpt/sc.json" \
    -audit "$ckpt/chk.jsonl" -checkpoint "$ckpt/snap.json" -checkpoint-sec 3600 > /dev/null
go run ./cmd/dfsim -config "$ckpt/sc.json" -restore "$ckpt/snap.json" \
    -csv "$ckpt/warm.csv" -audit "$ckpt/warm.jsonl" -trace "$ckpt/warm.ndjson" > /dev/null
cmp "$ckpt/cold.csv" "$ckpt/warm.csv" || { echo "restored metrics CSV diverged" >&2; exit 1; }
cmp "$ckpt/chk.jsonl" "$ckpt/cold.jsonl" || { echo "checkpointing perturbed the audit log" >&2; exit 1; }
cmp "$ckpt/cold.jsonl" "$ckpt/warm.jsonl" || { echo "restored audit log diverged" >&2; exit 1; }
tail -n "$(wc -l < "$ckpt/warm.ndjson")" "$ckpt/cold.ndjson" | cmp - "$ckpt/warm.ndjson" || {
    echo "restored trace is not a byte tail of the cold trace" >&2
    exit 1
}
rm -rf "$ckpt"

# Snapshot equality across a restore: on a fixture with replayed infra,
# monitoring faults, boot delays and crashes, a run restored at T1 and
# checkpointed at T2 must write the same state/v1 bytes as a cold run
# checkpointed at T2. This pins the state the CSV, audit and trace checks
# above never read (the monitors' estimators, the fault counters).
refold=$(mktemp -d)
go run ./cmd/dfsim -config testdata/refold/scenario.json \
    -audit "$refold/cold.jsonl" -checkpoint "$refold/cold.json" -checkpoint-sec 4800 > /dev/null
go run ./cmd/dfsim -config testdata/refold/scenario.json \
    -audit "$refold/t1.jsonl" -checkpoint "$refold/t1.json" -checkpoint-sec 2400 > /dev/null
go run ./cmd/dfsim -config testdata/refold/scenario.json -restore "$refold/t1.json" \
    -audit "$refold/warm.jsonl" -checkpoint "$refold/warm.json" -checkpoint-sec 4800 > /dev/null
cmp "$refold/cold.json" "$refold/warm.json" || { echo "restored run's snapshot differs from the cold run's" >&2; exit 1; }
rm -rf "$refold"

# Single-tenant golden diff: a restore from the committed pre-refactor
# state/v1 snapshot must reproduce the committed CSV, audit log, and trace
# byte-for-byte — the tenant dimension added to the engine must be
# invisible to single-tenant runs.
gold=testdata/prerefactor
gtmp=$(mktemp -d)
go run ./cmd/dfsim -config "$gold/scenario.json" -restore "$gold/snap.json" \
    -csv "$gtmp/warm.csv" -audit "$gtmp/warm.jsonl" -trace "$gtmp/warm.ndjson" > /dev/null
for f in warm.csv warm.jsonl warm.ndjson; do
    cmp "$gold/$f" "$gtmp/$f" || { echo "single-tenant output diverged from pre-refactor golden $f" >&2; exit 1; }
done
rm -rf "$gtmp"

# Examples smoke: every example must build and exit 0, so a facade change
# that breaks one fails here at run time too, not only at compile time.
# The multi-tenant example, three tenants (one session-driven) on one fleet
# with fair-share arbitration, must also keep every Ω floor.
ex=$(mktemp -d)
mkdir "$ex/bin"
go build -o "$ex/bin/" ./examples/...
for bin in "$ex"/bin/*; do
    name=$(basename "$bin")
    "$bin" > "$ex/$name.out" || {
        cat "$ex/$name.out" >&2
        echo "example $name exited non-zero" >&2
        exit 1
    }
done
mt=$(cat "$ex/multitenant.out")
rm -rf "$ex"
echo "$mt"
if echo "$mt" | grep -q 'MISSED'; then
    echo "multitenant example missed an omega floor" >&2
    exit 1
fi
echo "$mt" | grep -q 'fair-share rulings' || { echo "multitenant example reported no arbitration line" >&2; exit 1; }

# Every fuzz pass below runs for 10 s, and each minimization of a new
# corpus entry or a crasher is bounded at 100 calls of the fuzz function:
# with the default 60 s bound a pass spent most of its budget minimizing
# (FuzzDecode ran 254 inputs in 10 s from an empty corpus cache, 163,367
# with the bound; FuzzSweepSpec 16 and 53,192).

# Conservation fuzzing: arbitrary scenario JSON through parse/build/run
# with the strict invariant checker; any violated law is a crasher.
go test ./internal/invariant -run '^$' -fuzz 'FuzzCheckerConservation' -fuzztime 10s -fuzzminimizetime 100x

# Snapshot fuzzing: arbitrary bytes through the state/v1 decoder must be
# rejected with an error — never a panic — and anything accepted must
# re-encode canonically.
go test ./internal/state -run '^$' -fuzz 'FuzzDecode' -fuzztime 10s -fuzzminimizetime 100x

# Restore fuzzing: FuzzDecode stops at the digest check, so this pass edits
# the fleet records, core and queue cells and monitor entries of real
# checkpoints. Restore must reject the edit, or the restored engine must run
# on under the strict checker with its fleet index equal to a history walk.
go test ./internal/sim -run '^$' -fuzz 'FuzzRestore' -fuzztime 10s -fuzzminimizetime 100x

# Prometheus-importer fuzzing: arbitrary bytes must never panic the parser,
# and anything accepted must be a render fixed point.
go test ./internal/calibration -run '^$' -fuzz 'FuzzParsePrometheus' -fuzztime 10s -fuzzminimizetime 100x

# Sweep-spec fuzzing: dfserve expands spec JSON taken over HTTP. Arbitrary
# bytes through ParseSpec + Expand must never panic, and must give the same
# jobs (or the same error) as the original byte-level expansion.
go test ./internal/sweep -run '^$' -fuzz 'FuzzExpand' -fuzztime 10s -fuzzminimizetime 100x

# Sweep-spec execution fuzzing: the jobs arbitrary spec bytes expand to
# (merge-patched tenants included) must run, cut short, under the strict
# invariant checker without a panic or a violated law.
go test ./internal/sweep -run '^$' -fuzz 'FuzzSweepSpec' -fuzztime 10s -fuzzminimizetime 100x

# Event-encoder fuzzing: the tracer appends obs/v1 lines itself. On events
# built from arbitrary bytes (control bytes, HTML characters, invalid UTF-8,
# U+2028, floats at the format cutoffs, NaN and infinities, decisions) it
# must write exactly json.Encoder's bytes, or fail with the same error.
go test ./internal/obs -run '^$' -fuzz 'FuzzAppendEvent' -fuzztime 10s -fuzzminimizetime 100x

# Results-wire fuzzing: the coordinator takes NDJSON result lines over HTTP.
# Arbitrary bytes must never panic the route, every non-blank line gets one
# ack, and a leased job's first delivery is acked, every later one a
# duplicate.
go test ./internal/sweep/fabric -run '^$' -fuzz 'FuzzResultsWire' -fuzztime 10s -fuzzminimizetime 100x

# The trace hook must cost 0 allocs/op while tracing is disabled.
bench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStep/hook/disabled' -benchtime 100x -benchmem)
echo "$bench"
echo "$bench" | grep -q ' 0 allocs/op' || {
    echo "disabled tracer hook allocates on the engine hot path" >&2
    exit 1
}

# Same guarantee for the invariant-checker hook while no checker is attached.
bench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStepChecker/hook/disabled' -benchtime 100x -benchmem)
echo "$bench"
echo "$bench" | grep -q ' 0 allocs/op' || {
    echo "disabled invariant-checker hook allocates on the engine hot path" >&2
    exit 1
}

# Same guarantee for the stage-profiler hook while no profiler is attached.
bench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStepProfiler/hook/disabled' -benchtime 100x -benchmem)
echo "$bench"
echo "$bench" | grep -q ' 0 allocs/op' || {
    echo "detached stage-profiler hook allocates on the engine hot path" >&2
    exit 1
}

# The arena-backed engine must step a 1000-PE DAG with zero steady-state
# heap allocations — the core guarantee of the hot-path flattening. At
# ~0.15 ms a step, 1000 iterations keep one reading from swinging with the
# host.
stepbench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStepLargeDAG/steady' -benchtime 1000x -benchmem)
echo "$stepbench"
echo "$stepbench" | grep -q ' 0 allocs/op' || {
    echo "steady-state engine step allocates on the large-DAG hot path" >&2
    exit 1
}

# The scheduler must keep pace with the engine: one Adapt of the global
# heuristic on the same 1000-PE layered DAG (about 1,300 VMs) may allocate
# at most 128 objects and cost at most 22x the steady engine step above
# (observed ~6x). Both sides come from this run, so machine speed largely
# cancels. An Adapt that issues no actions allocates nothing
# (TestAdaptAllocs); what still allocates here (~45 per Adapt) is the fleet
# still growing: VM acquisitions and the engine's arena slots for the new
# VMs. The time limit catches an Adapt that goes O(V^2) in the fleet, as
# the per-victim consolidation scans did. It used to be 3x of a step that
# still probed every VM pair; 22x of today's step is the same absolute
# budget.
adaptbench=$(go test ./internal/core -run '^$' -bench 'BenchmarkAdaptLargeDAG' -benchtime 100x -benchmem)
echo "$adaptbench"
printf '%s\n%s\n' "$stepbench" "$adaptbench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkEngineStepLargeDAG\/steady/ { step = field("ns/op") }
    /^BenchmarkAdaptLargeDAG/ { adapt = field("ns/op"); allocs = field("allocs/op") }
    END {
        if (step == "" || adapt == "" || allocs == "") { print "adapt guard: benchmarks missing" > "/dev/stderr"; exit 1 }
        ratio = adapt / step
        printf "adapt/step ratio: %.2fx, %d allocs per adapt\n", ratio, allocs
        if (allocs > 128) {
            printf "converged Adapt allocates %d objects (limit 128)\n", allocs > "/dev/stderr"
            exit 1
        }
        if (ratio > 22.0) {
            printf "converged Adapt costs %.2fx the steady engine step (limit 22.0x)\n", ratio > "/dev/stderr"
            exit 1
        }
    }'

# Deployment must scale too: one Deploy of the global heuristic on the same
# 1000-PE DAG (alternate selection, the planner, materializing about 1,000
# VMs) may cost at most 73x the steady engine step above and allocate at
# most 4 MB (observed ~23x and 0.7 MB). The limit catches a planner that
# goes O(V^2): the map-based one took 244 ms (over 1,000x today's step)
# and 94 MB. It used to be 10x of a step that still probed every VM pair;
# 73x of today's step is the same absolute budget.
deploybench=$(go test ./internal/core -run '^$' -bench 'BenchmarkDeployLargeDAG' -benchtime 100x -benchmem)
echo "$deploybench"
printf '%s\n%s\n' "$stepbench" "$deploybench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkEngineStepLargeDAG\/steady/ { step = field("ns/op") }
    /^BenchmarkDeployLargeDAG/ { deploy = field("ns/op"); bytes = field("B/op") }
    END {
        if (step == "" || deploy == "" || bytes == "") { print "deploy guard: benchmarks missing" > "/dev/stderr"; exit 1 }
        ratio = deploy / step
        printf "deploy/step ratio: %.2fx, %.2f MB per deploy\n", ratio, bytes / 1048576
        if (bytes > 4 * 1048576) {
            printf "Deploy allocates %.2f MB (limit 4 MB)\n", bytes / 1048576 > "/dev/stderr"
            exit 1
        }
        if (ratio > 73.0) {
            printf "Deploy costs %.2fx the steady engine step (limit 73.0x)\n", ratio > "/dev/stderr"
            exit 1
        }
    }'

# Expanding a sweep grid must stay cheap per job: the fig67 grid at the
# default configuration with 4 replicas (96 jobs) may allocate at most 64
# objects per job (observed ~20 resolving jobs in struct space). Encoding
# and re-parsing every job's merged tree took ~330 and merging byte
# documents ~1,170, so a silent fallback to the tree path fails here. A
# grid shaped like the benchmark's paper grid (5 axes, replicas as an axis,
# 1 seed, 72 jobs) may allocate at most 8 KB per job (observed ~5.3 KB):
# merging every level's tree as well, and a strict json.Decoder per level,
# made it ~10.9 KB.
expandbench=$(go test ./internal/sweep -run '^$' -bench 'BenchmarkExpand' -benchtime 20x -benchmem)
echo "$expandbench"
echo "$expandbench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkExpand\/fig67(-[0-9]+)?[ \t]/ { jobs = field("jobs/op"); allocs = field("allocs/op") }
    /^BenchmarkExpand\/paper-grid(-[0-9]+)?[ \t]/ { gridJobs = field("jobs/op"); gridBytes = field("B/op") }
    END {
        if (jobs == "" || allocs == "" || jobs == 0 || gridJobs == "" || gridBytes == "" || gridJobs == 0) { print "expand guard: benchmark missing" > "/dev/stderr"; exit 1 }
        per = allocs / jobs
        printf "expand: %.0f allocs per job over %d jobs\n", per, jobs
        if (per > 64) {
            printf "Expand allocates %.0f objects per job (limit 64)\n", per > "/dev/stderr"
            exit 1
        }
        kb = gridBytes / gridJobs / 1024
        printf "expand: %.1f KB per job over the %d-job paper grid\n", kb, gridJobs
        if (kb > 8) {
            printf "Expand allocates %.1f KB per paper-grid job (limit 8 KB)\n", kb > "/dev/stderr"
            exit 1
        }
    }'

# A sweep job keeps only its run's summary: one cold 10 h job of the
# evaluation graph (replayed infra, wave+walk input, strict checker) may
# allocate at most 68 KB (observed ~61 KB). An engine that reserves the
# job's 600 metric rows, as every job's did, makes it ~136 KB, so a job path
# that keeps the per-interval series again fails here, and so does a job
# that draws its own random walk instead of the campaign memo's (~75 KB).
# The forked case, the same job restored from a 5 h checkpoint, may
# allocate at most 56 KB (observed ~49 KB): its own walk made it ~62 KB,
# and importing the prefix's pairwise network estimators ~77 KB.
jobbench=$(go test ./internal/sweep -run '^$' -bench 'BenchmarkExecuteJob' -benchtime 20x -benchmem)
echo "$jobbench"
echo "$jobbench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkExecuteJob\/cold/ { bytes = field("B/op") }
    /^BenchmarkExecuteJob\/forked/ { forked = field("B/op") }
    END {
        if (bytes == "" || forked == "") { print "job guard: benchmarks missing" > "/dev/stderr"; exit 1 }
        printf "sweep job: %.1f KB per cold job, %.1f KB per forked job\n", bytes / 1024, forked / 1024
        if (bytes > 69632) {
            printf "a cold sweep job allocates %.1f KB (limit 68 KB)\n", bytes / 1024 > "/dev/stderr"
            exit 1
        }
        if (forked > 57344) {
            printf "a forked sweep job allocates %.1f KB (limit 56 KB)\n", forked / 1024 > "/dev/stderr"
            exit 1
        }
    }'

# The same 0-alloc guarantee must hold with the tenant dimension hot:
# 8 tenants x 125 PEs with per-tenant Ω/Γ/spend folds every interval.
mtstepbench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStepMultiTenant' -benchtime 100x -benchmem)
echo "$mtstepbench"
echo "$mtstepbench" | grep -q ' 0 allocs/op' || {
    echo "multi-tenant engine step allocates on the hot path" >&2
    exit 1
}

# The scheduler must keep pace on a shared fleet too: one converged Adapt
# of 16 tenants' global heuristics (14-PE graphs, a 400-VM fleet at its
# cap, fair-share rulings on every acquisition) may allocate at most 8
# objects and cost at most 10x the multi-tenant engine step above (observed
# 0 allocations and ~1-2x). The arbiter's denials and the fleet's refusals
# at the cap hand out errors built once; a new error per denial and
# refusal made it 44, and a fresh starvation slice per ruling 59. Every
# tenant reads the engine's one active-VM list; 16 private copies rebuilt
# three times an interval cost ~7-11x.
mtadaptbench=$(go test ./internal/core -run '^$' -bench 'BenchmarkAdaptMultiTenant' -benchtime 100x -benchmem)
echo "$mtadaptbench"
printf '%s\n%s\n' "$mtstepbench" "$mtadaptbench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkEngineStepMultiTenant/ { step = field("ns/op") }
    /^BenchmarkAdaptMultiTenant/ { adapt = field("ns/op"); allocs = field("allocs/op") }
    END {
        if (step == "" || adapt == "" || allocs == "") { print "multi-tenant adapt guard: benchmarks missing" > "/dev/stderr"; exit 1 }
        ratio = adapt / step
        printf "multi-tenant adapt/step ratio: %.2fx, %d allocs per adapt\n", ratio, allocs
        if (allocs > 8) {
            printf "converged multi-tenant Adapt allocates %d objects (limit 8)\n", allocs > "/dev/stderr"
            exit 1
        }
        if (ratio > 10.0) {
            printf "converged multi-tenant Adapt costs %.2fx the multi-tenant engine step (limit 10.0x)\n", ratio > "/dev/stderr"
            exit 1
        }
    }'

# An attached stage profiler must stay cheap: with allocation sampling it
# reads the heap counter on ~1/31st of calls, so a profiled run may cost at
# most 8x a bare one (observed ~4x; the pre-sampling regression was well
# past this). An attached tracer must stay cheap too: a traced run may cost
# at most 2.5x a bare one and allocate at most 8 objects more (observed
# ~1.1-1.8x and 1 more; encoding each event through reflective
# encoding/json cost ~4-5.8x and 129 more). An attached strict checker
# must not allocate per step: a checked run may allocate at most 8 objects
# more than a bare one (observed 5; the fleet law's per-step map and tally
# made it ~64). The time ratios come from BenchmarkEngineRun/paired, which
# alternates bare, traced and profiled runs inside one timed loop: the
# separate bare and tracer rows divide windows taken seconds apart, and on
# unchanged code their ratio read 1.16-2.63x. Those rows' ratios are
# printed for comparison; the allocation counts, which do not depend on the
# host, come from them.
bench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineRun/(bare|tracer|checker|profiler|paired)$' -benchtime 200x -benchmem)
echo "$bench"
echo "$bench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkEngineRun\/bare/     { off = field("ns/op"); offAllocs = field("allocs/op") }
    /^BenchmarkEngineRun\/tracer/   { traced = field("ns/op"); traceAllocs = field("allocs/op") }
    /^BenchmarkEngineRun\/checker/  { checkAllocs = field("allocs/op") }
    /^BenchmarkEngineRun\/profiler/ { on = field("ns/op") }
    /^BenchmarkEngineRun\/paired/   { pairedTrace = field("tracer/bare"); pairedProf = field("profiler/bare") }
    END {
        if (off == "" || on == "" || offAllocs == "" || checkAllocs == "" || traced == "" || traceAllocs == "" || pairedTrace == "" || pairedProf == "") { print "run guards: benchmarks missing" > "/dev/stderr"; exit 1 }
        printf "unpaired rows: profiler/bare %.2fx, tracer/bare %.2fx\n", on / off, traced / off
        printf "profiler overhead ratio (paired): %.2fx\n", pairedProf
        if (pairedProf > 8.0) {
            printf "attached stage profiler costs %.2fx the bare run (limit 8.0x)\n", pairedProf > "/dev/stderr"
            exit 1
        }
        printf "tracer overhead ratio (paired): %.2fx, %d allocations per run vs %d bare\n", pairedTrace, traceAllocs, offAllocs
        if (pairedTrace > 2.5) {
            printf "attached tracer costs %.2fx the bare run (limit 2.5x)\n", pairedTrace > "/dev/stderr"
            exit 1
        }
        if (traceAllocs > offAllocs + 8) {
            printf "a traced run allocates %d objects, bare %d (limit bare + 8)\n", traceAllocs, offAllocs > "/dev/stderr"
            exit 1
        }
        printf "checker allocations: %d per run vs %d bare\n", checkAllocs, offAllocs
        if (checkAllocs > offAllocs + 8) {
            printf "a strict-checked run allocates %d objects, bare %d (limit bare + 8)\n", checkAllocs, offAllocs > "/dev/stderr"
            exit 1
        }
    }'

# A run's output encoders: one traced event (a mix of spans, a control
# action and a decision) must allocate nothing, and one metrics CSV of a
# tenants-scarce-sized collector (180 rows, 16 tenants, 59 columns) at most
# 64 objects whatever its row count (observed 53: three header names per
# tenant and the writers' buffers; a string per cell made it ~20,900).
encbench=$({
    go test ./internal/obs -run '^$' -bench 'BenchmarkTracerEmit' -benchtime 100000x -benchmem
    go test ./internal/metrics -run '^$' -bench 'BenchmarkWriteCSV' -benchtime 200x -benchmem
})
echo "$encbench"
echo "$encbench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkTracerEmit/ { emitAllocs = field("allocs/op") }
    /^BenchmarkWriteCSV/   { csvAllocs = field("allocs/op") }
    END {
        if (emitAllocs == "" || csvAllocs == "") { print "encoder guards: benchmarks missing" > "/dev/stderr"; exit 1 }
        printf "encoders: %d allocations per traced event, %d per metrics CSV\n", emitAllocs, csvAllocs
        if (emitAllocs > 0) {
            printf "an attached tracer allocates %d objects per event (limit 0)\n", emitAllocs > "/dev/stderr"
            exit 1
        }
        if (csvAllocs > 64) {
            printf "a metrics CSV allocates %d objects (limit 64)\n", csvAllocs > "/dev/stderr"
            exit 1
        }
    }'

# Trace generation layer, recorded in the snapshot below: one default
# replayed provider of 5,760-sample traces. /cpu is its construction, which
# generates the 8 CPU traces; /network adds the first network read, which
# generates the 8 latency and 8 bandwidth traces, so it is the whole pool.
poolbench=$(go test ./internal/trace -run '^$' -bench 'BenchmarkNewReplayed' -benchtime 50x -benchmem)
echo "$poolbench"

# Checkpoint layer, recorded in the snapshot below: one Checkpoint, one
# state.Encode, one state.Decode and one Restore of the 1000-PE large-DAG
# run on replayed infrastructure after 30 intervals.
ckptbench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkCheckpoint' -benchtime 20x -benchmem)
echo "$ckptbench"

# Fabric layer, recorded in the snapshot below: one lease and one result
# delivery over loopback HTTP against the coordinator's handler, with a
# stub result and no simulation, in campaigns of 256 and of 16,384 jobs.
# The coordinator's work per event must not grow with the jobs a campaign
# has finished: a trip in the large campaign may cost at most 2x one in the
# small (observed ~1.1x). Scanning and recounting every slot on each lease,
# ack and expiry scan made it ~5x. Both rows come from one run, so the
# ratio survives a change of host.
leasebench=$(go test ./internal/sweep/fabric -run '^$' -bench 'BenchmarkLeaseRoundTrip' -benchtime 2000x -benchmem)
echo "$leasebench"
echo "$leasebench" | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    /^BenchmarkLeaseRoundTrip\/jobs=256(-[0-9]+)?[ \t]/ { small = field("ns/op") }
    /^BenchmarkLeaseRoundTrip\/jobs=16384(-[0-9]+)?[ \t]/ { large = field("ns/op") }
    END {
        if (small == "" || large == "" || small == 0) { print "lease guard: benchmarks missing" > "/dev/stderr"; exit 1 }
        ratio = large / small
        printf "lease round trip: %.2fx in a 16,384-job campaign vs a 256-job one\n", ratio
        if (ratio > 2.0) {
            printf "a lease round trip in a 16,384-job campaign costs %.2fx one in a 256-job campaign (limit 2.0x)\n", ratio > "/dev/stderr"
            exit 1
        }
    }'

# Benchmark snapshot: run the engine-step and per-run benchmark suites with
# -benchmem, add the Adapt, Deploy, Expand, ExecuteJob, NewReplayed,
# Checkpoint, LeaseRoundTrip, TracerEmit and WriteCSV benchmarks measured
# above, and record ns/op, B/op, allocs/op per benchmark as BENCH_step.json,
# so perf regressions show up in review diffs. Each row names what one op
# is: an engine step, a whole one-hour run, a bare, a traced and a profiled
# run (/paired), one disabled-hook call, one Adapt call, one Deploy, one
# expansion of the 96-job fig67 grid or the 72-job paper grid, one sweep
# job, one replayed provider
# built (its CPU pool), one whole generated trace pool, one checkpoint,
# encode, decode or restore of a snapshot, one fabric lease-and-ack round
# trip, one traced event, or one metrics CSV. The numbers are
# machine-dependent; the file is a tracked observation, not a gate.
{
    go test ./internal/sim -run '^$' -bench 'BenchmarkEngine(Step|Run)' -benchtime 100x -benchmem
    echo "$adaptbench"
    echo "$mtadaptbench"
    echo "$deploybench"
    echo "$expandbench"
    echo "$jobbench"
    echo "$poolbench"
    echo "$ckptbench"
    echo "$leasebench"
    echo "$encbench"
} | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    BEGIN { print "[" }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        unit = "step"
        if (name ~ /^BenchmarkAdapt/) unit = "adapt"
        else if (name ~ /^BenchmarkDeploy/) unit = "deploy"
        else if (name ~ /^BenchmarkExpand/) unit = "expand"
        else if (name ~ /^BenchmarkExecuteJob/) unit = "job"
        else if (name ~ /^BenchmarkNewReplayed\/cpu/) unit = "provider"
        else if (name ~ /^BenchmarkNewReplayed/) unit = "pool"
        else if (name ~ /^BenchmarkCheckpoint/) unit = "snapshot"
        else if (name ~ /^BenchmarkLeaseRoundTrip/) unit = "trip"
        else if (name ~ /^BenchmarkTracerEmit/) unit = "event"
        else if (name ~ /^BenchmarkWriteCSV/) unit = "csv"
        else if (name ~ /^BenchmarkEngineRun\/paired/) unit = "run-trio"
        else if (name ~ /^BenchmarkEngineRun/) unit = "run"
        else if (name ~ /\/hook\//) unit = "call"
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"unit\": \"%s\", \"nsPerOp\": %s, \"bytesPerOp\": %s, \"allocsPerOp\": %s}", name, unit, field("ns/op"), field("B/op"), field("allocs/op")
    }
    END { print "\n]" }' > BENCH_step.json
cat BENCH_step.json
