#!/usr/bin/env bash
# Runs the microbenchmarks for benchstat and regenerates the kernel
# autotuner record. The end-to-end numbers (search throughput, engine
# inference, serving) live in bench/qsbench, not here.
#
#   bench/latest.txt   one `go test -bench` run over the search, kernel,
#                      batch and serve microbenchmarks, headed by the
#                      `qsdnn version` lines (Go, arch, GEMM kernel);
#                      compare it with `benchstat bench/baseline.txt
#                      bench/latest.txt`
#   BENCH_tuner.json   kernel autotuner: tuned-vs-default per-layer
#                      times on lenet5, stamped with the host and the
#                      dispatched GEMM kernel
#
# The script fails when bench/baseline.txt names a benchmark this run
# did not produce, so a deleted or renamed benchmark cannot leave a
# stale baseline row behind.
#
# Environment overrides:
#   BENCHTIME  per-benchmark budget (default 2s; CI smoke uses 1x)
#   COUNT      repetitions per benchmark (default 1)
# TestTunerRecord reads QSDNN_TUNER_BUDGET itself (default 8).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
COUNT="${COUNT:-1}"

# Every benchmark bench/baseline.txt carries, plus the memory-bound
# kernel rows. benchstat skips the version header: "gemm kernel" has a
# space in its key, so it is not a configuration line.
{
    go run ./cmd/qsdnn version
    go test -run '^$' \
        -bench 'BenchmarkSearchEpisodes|BenchmarkReplayInto|BenchmarkPlanTotalTime|BenchmarkProfilePhase|BenchmarkConvKernels|BenchmarkGemm$|BenchmarkConvFFTKernel|BenchmarkMemoryBoundKernels|BenchmarkOptimizeBatch|BenchmarkGEMMBackends|BenchmarkGEMMPointwise|BenchmarkRunBatch|BenchmarkServeOptimize' \
        -benchtime "$BENCHTIME" -count "$COUNT" \
        . ./internal/gemm/ ./internal/runner/ ./internal/serve/
} | tee bench/latest.txt

# Stale-baseline guard: names compared without the -GOMAXPROCS suffix.
missing="$(awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (NR == FNR) want[name] = 1
    else got[name] = 1
}
END { for (name in want) if (!(name in got)) print name }
' bench/baseline.txt bench/latest.txt | sort)"
if [ -n "$missing" ]; then
    echo "bench/baseline.txt names benchmarks this run did not produce:" >&2
    echo "$missing" >&2
    exit 1
fi
echo "wrote bench/latest.txt"

# Kernel autotuner: budgeted variant search on the real host engine;
# gates on a >= 10% best per-layer speedup. go test runs in the package
# directory, so the output path is absolute.
QSDNN_TUNER_OUT="$(pwd)/BENCH_tuner.json" \
    go test -run 'TestTunerRecord' -count 1 ./internal/tune/
echo "wrote BENCH_tuner.json"
