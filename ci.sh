#!/bin/sh
# Repository gate: vet, build, the full test suite under the race detector
# plus a shuffled re-run, a race-enabled fabric chaos smoke (coordinator +
# three crash-prone workers, seeded faults, aggregate CSV byte-equal to the
# single-pool baseline), a dfserve end-to-end smoke (start the service,
# submit a 4-job warm-start sweep over HTTP, assert the aggregated output
# incl. /metrics and the prefix fork count, then repeat it through a fabric
# coordinator with one worker and assert CSV byte-equality, shut down), a
# dftrace smoke over the golden fixture, a checkpoint/restore
# byte-determinism smoke, a single-tenant golden diff against the committed
# pre-refactor fixture (the multi-tenant refactor must stay byte-invisible
# to single-tenant runs), a multi-tenant example smoke, the dfcalib
# calibration loopback (parameter recovery + digital-twin validation), the
# invariant-conservation, snapshot-decoder and Prometheus-importer fuzz
# passes, the zero-alloc guarantees for the disabled-tracer,
# disabled-checker, and detached stage-profiler hot paths plus the
# steady-state large-DAG and 8-tenant steps themselves, an
# attached-profiler overhead-ratio guard, an allocation and adapt/step ratio
# guard on the global heuristic's Adapt at 1000 PEs, and an engine-step and
# Adapt benchmark snapshot written to BENCH_step.json. The flow-stage
# differential battery (TestFlowParallelByteIdentical) and the parallel-flow
# race stress test ride the `go test -race ./...` pass above. Run from the
# repo root.
set -eu

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
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

# dftrace smoke: the golden capture must replay, render, and self-diff clean.
go run ./cmd/dftrace cmd/dftrace/testdata/golden.ndjson > /dev/null
go run ./cmd/dftrace diff cmd/dftrace/testdata/golden.ndjson cmd/dftrace/testdata/golden.ndjson > /dev/null

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

# Multi-tenant smoke: three tenants (one session-driven) on one fleet with
# fair-share arbitration must build, run, and keep every Ω floor.
mt=$(go run ./examples/multitenant)
echo "$mt"
if echo "$mt" | grep -q 'MISSED'; then
    echo "multitenant example missed an omega floor" >&2
    exit 1
fi
echo "$mt" | grep -q 'fair-share rulings' || { echo "multitenant example reported no arbitration line" >&2; exit 1; }

# Conservation fuzzing: arbitrary scenario JSON through parse/build/run
# with the strict invariant checker; any violated law is a crasher.
go test ./internal/invariant -run '^$' -fuzz 'FuzzCheckerConservation' -fuzztime 10s

# Snapshot fuzzing: arbitrary bytes through the state/v1 decoder must be
# rejected with an error — never a panic — and anything accepted must
# re-encode canonically.
go test ./internal/state -run '^$' -fuzz 'FuzzDecode' -fuzztime 10s

# Prometheus-importer fuzzing: arbitrary bytes must never panic the parser,
# and anything accepted must be a render fixed point.
go test ./internal/calibration -run '^$' -fuzz 'FuzzParsePrometheus' -fuzztime 10s

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
# heap allocations — the core guarantee of the hot-path flattening.
stepbench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStepLargeDAG/steady' -benchtime 100x -benchmem)
echo "$stepbench"
echo "$stepbench" | grep -q ' 0 allocs/op' || {
    echo "steady-state engine step allocates on the large-DAG hot path" >&2
    exit 1
}

# The scheduler must keep pace with the engine: one converged Adapt of the
# global heuristic on the same 1000-PE layered DAG (about 1,300 VMs) may
# allocate at most 512 objects and cost at most 3x the steady engine step
# above. Both sides come from this run, so machine speed largely cancels.
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
        if (allocs > 512) {
            printf "converged Adapt allocates %d objects (limit 512)\n", allocs > "/dev/stderr"
            exit 1
        }
        if (ratio > 3.0) {
            printf "converged Adapt costs %.2fx the steady engine step (limit 3.0x)\n", ratio > "/dev/stderr"
            exit 1
        }
    }'

# The same 0-alloc guarantee must hold with the tenant dimension hot:
# 8 tenants x 125 PEs with per-tenant Ω/Γ/spend folds every interval.
bench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStepMultiTenant' -benchtime 100x -benchmem)
echo "$bench"
echo "$bench" | grep -q ' 0 allocs/op' || {
    echo "multi-tenant engine step allocates on the hot path" >&2
    exit 1
}

# An attached stage profiler must stay cheap: with allocation sampling it
# reads the heap counter on ~1/31st of calls, so a profiled run may cost at
# most 8x an unprofiled one (observed ~4x; the pre-sampling regression was
# well past this). Both sides come from one invocation so machine noise
# largely cancels.
bench=$(go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStepProfiler/run' -benchtime 200x)
echo "$bench"
echo "$bench" | awk '
    /profiler=off/ { off = $3 }
    /profiler=on/  { on = $3 }
    END {
        if (off == "" || on == "") { print "profiler ratio guard: benchmarks missing" > "/dev/stderr"; exit 1 }
        ratio = on / off
        printf "profiler overhead ratio: %.2fx\n", ratio
        if (ratio > 8.0) {
            printf "attached stage profiler costs %.2fx the unprofiled step (limit 8.0x)\n", ratio > "/dev/stderr"
            exit 1
        }
    }'

# Benchmark snapshot: run the engine-step benchmark suite with -benchmem,
# add the Adapt benchmark measured above, and record ns/op, B/op, allocs/op
# per benchmark as BENCH_step.json, so perf regressions show up in review
# diffs. Each row names what one op is: an engine step, a whole one-hour
# run, one disabled-hook call, or one Adapt call. The numbers are
# machine-dependent; the file is a tracked observation, not a gate.
{
    go test ./internal/sim -run '^$' -bench 'BenchmarkEngineStep' -benchtime 100x -benchmem
    echo "$adaptbench"
} | awk '
    function field(unit,   i) { for (i = 3; i < NF; i++) if ($(i + 1) == unit) return $i; return "" }
    BEGIN { print "[" }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        unit = "step"
        if (name ~ /^BenchmarkAdapt/) unit = "adapt"
        else if (name ~ /\/hook\//) unit = "call"
        else if (name ~ /\/run\//) unit = "run"
        if (n++) printf ",\n"
        printf "  {\"name\": \"%s\", \"unit\": \"%s\", \"nsPerOp\": %s, \"bytesPerOp\": %s, \"allocsPerOp\": %s}", name, unit, field("ns/op"), field("B/op"), field("allocs/op")
    }
    END { print "\n]" }' > BENCH_step.json
cat BENCH_step.json
