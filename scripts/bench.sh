#!/usr/bin/env sh
# Runs the hot-path benchmarks and emits the machine-readable perf
# records the CI bench-smoke job uploads and EXPERIMENTS.md quotes:
#   BENCH_search.json   search-phase benchmarks (root package)
#   BENCH_kernels.json  GEMM/conv kernel + engine benchmarks
#   BENCH_serve.json    serving daemon: 64-client load percentiles
#                       (p50/p95/p99 latency, throughput)
#   BENCH_tuner.json    kernel autotuner: tuned-vs-default per-layer
#                       times and the end-to-end searched engine
#                       improvement on a real zoo network
# The raw `go test -bench` text is preserved next to them for
# benchstat (bench/latest.txt, bench/latest_kernels.txt,
# bench/latest_serve.txt).
#
# Environment overrides:
#   BENCHTIME  per-benchmark budget (default 2s; CI smoke uses 1x)
#   COUNT      repetitions per benchmark (default 1)
#   OUT        search JSON path (default BENCH_search.json)
#   KOUT       kernel JSON path (default BENCH_kernels.json)
#   SOUT       serve JSON path (default BENCH_serve.json)
#   TOUT       tuner JSON path (default BENCH_tuner.json)
#   TUNER_BUDGET  autotuner measurements per (layer, primitive)
#                 (default 8; CI smoke uses 4)
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
COUNT="${COUNT:-1}"
OUT="${OUT:-BENCH_search.json}"
KOUT="${KOUT:-BENCH_kernels.json}"
SOUT="${SOUT:-BENCH_serve.json}"
TOUT="${TOUT:-BENCH_tuner.json}"
TUNER_BUDGET="${TUNER_BUDGET:-8}"
RAW="${RAW:-bench/latest.txt}"
KRAW="${KRAW:-bench/latest_kernels.txt}"
SRAW="${SRAW:-bench/latest_serve.txt}"

mkdir -p "$(dirname "$RAW")"

# The dispatched GEMM micro-kernel (ISA) the numbers were measured
# with; recorded in every JSON so perf records from different hosts
# (or QSDNN_DISABLE_SIMD runs) are never compared apples-to-oranges.
# The version line reads "gemm kernel: avx2-8x8 (variants: ...)"; keep
# only the kernel name.
KERNEL="$(go run ./cmd/qsdnn version | awk '/^gemm kernel:/ {print $3}')"

# Host identity, so a record says which machine produced it: the
# target architecture, the Go scheduler's parallelism (GOMAXPROCS when
# set, else the CPU count it defaults to) and the CPU model. Each falls
# back to "unknown" where the host cannot say.
HOST_GOARCH="$(go env GOARCH 2>/dev/null || true)"
HOST_PROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || true)}"
HOST_CPU="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"

# emit_json RAWFILE OUTFILE: reduce benchmark text to one JSON object
# per benchmark. Averages over COUNT repetitions; carries every
# reported metric through. The header records the dispatched kernel
# and the host identity.
emit_json() {
    awk -v out="$2" -v kern="$KERNEL" -v goarch="${HOST_GOARCH:-unknown}" \
        -v procs="${HOST_PROCS:-unknown}" -v cpu="${HOST_CPU:-unknown}" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    n[name]++
    for (i = 3; i + 1 <= NF; i += 2) {
        key = $(i + 1)
        gsub(/\//, "_per_", key)
        sum[name "\034" key] += $i
        seen[name "\034" key] = 1
        if (!(key in keyorder_seen)) { keyorder[++nk] = key; keyorder_seen[key] = 1 }
        metrics[name] = metrics[name] == "" ? key : metrics[name] "\035" key
    }
    if (!(name in order_seen)) { order[++no] = name; order_seen[name] = 1 }
}
END {
    gsub(/[\\"]/, "\\\\&", cpu)
    if (procs !~ /^[0-9]+$/) procs = "\"unknown\""
    printf "{\n  \"gemm_kernel\": \"%s\",\n  \"goarch\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"cpu_model\": \"%s\",\n  \"benchmarks\": [\n", kern, goarch, procs, cpu > out
    for (b = 1; b <= no; b++) {
        name = order[b]
        printf "    {\"name\": \"%s\", \"count\": %d", name, n[name] >> out
        split(metrics[name], mk, "\035")
        delete done
        for (m = 1; m in mk; m++) {
            key = mk[m]
            if (key in done) continue
            done[key] = 1
            printf ", \"%s\": %.6g", key, sum[name "\034" key] / n[name] >> out
        }
        printf "}%s\n", (b < no ? "," : "") >> out
    }
    printf "  ]\n}\n" >> out
}
' "$1"
    echo "wrote $2"
}

# Search-phase benchmarks (root package).
go test -run '^$' \
    -bench 'BenchmarkSearchEpisodes|BenchmarkReplayInto|BenchmarkPlanTotalTime' \
    -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW"
emit_json "$RAW" "$OUT"

# Kernel-layer benchmarks: packed/parallel GEMM backends, the conv
# kernels they feed, real end-to-end engine inference, and the batch
# orchestrator's sequential-bypass guard.
go test -run '^$' \
    -bench 'BenchmarkGEMMBackends|BenchmarkGemm$|BenchmarkConvKernels|BenchmarkConvFFTKernel|BenchmarkEngineInference|BenchmarkProfilePhase|BenchmarkOptimizeBatch|BenchmarkRunBatch' \
    -benchtime "$BENCHTIME" -count "$COUNT" \
    . ./internal/gemm/ ./internal/runner/ | tee "$KRAW"
emit_json "$KRAW" "$KOUT"

# Serving daemon: the three HTTP request classes end to end (cold
# profile+search, warm cache hit, 8-way coalesced duplicates).
go test -run '^$' \
    -bench 'BenchmarkServeOptimize' \
    -benchtime "$BENCHTIME" -count "$COUNT" \
    ./internal/serve/ | tee "$SRAW"

# Load generator: 64 concurrent clients against an in-process daemon;
# writes client-observed p50/p95/p99 latency and sustained throughput,
# plus a second degraded-mode phase (seeded faults + deadline budgets)
# whose per-class percentiles land under "faulty_load".
# go test runs the test in its package directory, so the output path
# must be absolute.
case "$SOUT" in
/*) sout_abs="$SOUT" ;;
*) sout_abs="$(pwd)/$SOUT" ;;
esac
QSDNN_LOADTEST_OUT="$sout_abs" go test -run 'TestLoadRecord' -count 1 ./internal/serve/loadtest/
echo "wrote $SOUT"

# Kernel autotuner: budgeted variant search on the real host engine
# over a zoo network; records per-(layer, primitive) tuned-vs-default
# times and the end-to-end searched engine improvement, and gates on
# >= 10% best per-layer speedup.
case "$TOUT" in
/*) tout_abs="$TOUT" ;;
*) tout_abs="$(pwd)/$TOUT" ;;
esac
QSDNN_TUNER_OUT="$tout_abs" QSDNN_TUNER_BUDGET="$TUNER_BUDGET" \
    go test -run 'TestTunerRecord' -count 1 ./internal/tune/
echo "wrote $TOUT"
