#!/usr/bin/env bash
# Builds and tests querc across the sanitizer matrix:
#
#   plain   : -DQUERC_WERROR=ON                   (the tier-1 configuration)
#   asan    : -DQUERC_SANITIZE=address,undefined  (combined ASan+UBSan)
#   tsan    : -DQUERC_SANITIZE=thread
#   release : -DCMAKE_BUILD_TYPE=Release -DQUERC_WERROR=ON — the
#             configuration users deploy, where the optimizer raises
#             warnings (GCC's -Wrestrict) the other legs never see. Build
#             and ctest only; the smokes run in the legs above.
#   tsafety : -DQUERC_THREAD_SAFETY=ON, compiled with clang — the static
#             thread-safety-analysis leg (-Werror=thread-safety). Build
#             only, no runtime smokes; skipped gracefully when clang++ is
#             not on PATH, mirroring run_clang_tidy.sh.
#
# Each configuration gets its own build directory (build/, build-asan/,
# build-tsan/, build-release/, build-tsafety/) so incremental rebuilds
# stay cheap. Configurations can be subset via QUERC_VERIFY_CONFIGS
# ("plain asan tsan release tsafety" by default), and the ctest filter
# via QUERC_VERIFY_TESTS (-R pattern, default: everything).
#
#   tools/verify_matrix.sh                       # full matrix
#   QUERC_VERIFY_CONFIGS="plain" tools/verify_matrix.sh
#   QUERC_VERIFY_TESTS="sql|lint" tools/verify_matrix.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
configs="${QUERC_VERIFY_CONFIGS:-plain asan tsan release tsafety}"
test_filter="${QUERC_VERIFY_TESTS:-}"
jobs="${QUERC_VERIFY_JOBS:-$(nproc 2>/dev/null || echo 2)}"

# Configures, builds and runs ctest in one build directory.
build_and_test() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure: $* ===="
  cmake -B "$dir" -S "$repo_root" "$@" >/dev/null
  echo "==== [$name] build ===="
  cmake --build "$dir" -j "$jobs"
  echo "==== [$name] ctest ===="
  if [ -n "$test_filter" ]; then
    (cd "$dir" && ctest --output-on-failure -j "$jobs" -R "$test_filter")
  else
    (cd "$dir" && ctest --output-on-failure -j "$jobs")
  fi
}

run_config() {
  local name="$1" dir="$2"
  shift 2
  build_and_test "$name" "$dir" "$@"
  # Smoke the lint CLI end to end under the instrumented binary: a query
  # with a known error-severity finding must exit nonzero.
  if printf 'SELECT a FROM orders, lineitem;' | \
      "$dir/tools/querc" lint --stdin >/dev/null; then
    echo "[$name] FAIL: querc lint did not gate on an error finding" >&2
    return 1
  fi
  # Chaos smoke: a short fault-injection soak (sink failures + classifier
  # outage + shed bursts) must degrade gracefully — breakers trip and
  # re-close, load is shed instead of queued, nothing is silently dropped.
  # `querc chaos` exits nonzero if any of those invariants break.
  echo "==== [$name] chaos smoke ===="
  "$dir/tools/querc" chaos --shards 2 --warmup 40 --faults 120 \
    --recovery 200 --max-in-flight 4 --breaker-open-ms 10 >/dev/null
  # Noisy-neighbor smoke: one tenant floods at 10x its quota while its
  # backend fails; the drill exits nonzero unless isolation holds —
  # victims never shed (guaranteed-minimum share), victim p99 bounded,
  # only the aggressor's per-tenant breakers trip and all re-close, and
  # every shed reconciles per account across counters, the controller,
  # and the flight-recorder journal. Fully deterministic (fake clock), so
  # it runs identically in every sanitizer config.
  echo "==== [$name] noisy-neighbor smoke ===="
  "$dir/tools/querc" chaos --noisy-neighbor --shards 2 --victims 3 \
    --warmup 5 --flood 10 --recovery 200 --breaker-open-ms 10 >/dev/null
  # Embedding-cache smoke: warm-cache throughput must be >= 5x cold, a
  # replayed workload must hit, and cached vectors must be bit-identical
  # to direct inference. bench_embed_cache exits nonzero otherwise.
  echo "==== [$name] embed cache smoke ===="
  (cd "$dir" && ./bench/bench_embed_cache --smoke \
    --out BENCH_embed_smoke.json >/dev/null)
  # Aggregator smoke: the lock-free ConcurrentAggregator must hold its
  # correctness contract in every config (counts conserved across eviction
  # churn, exact in-capacity group-by, evict-least surfacing late hot
  # keys), and must beat the mutexed-map baseline at 8 threads in the
  # plain config. Sanitizer instrumentation distorts relative timings, so
  # asan/tsan run contract-only (--no-perf-gate).
  echo "==== [$name] aggregator smoke ===="
  local agg_flags=""
  if [ "$name" != plain ]; then agg_flags="--no-perf-gate"; fi
  (cd "$dir" && ./bench/bench_aggregator --smoke $agg_flags \
    --out BENCH_aggregator_smoke.json >/dev/null)
  # Flight-recorder smoke: the journal's conservation / drop-counting /
  # cross-thread-reassembly contract must hold in every config (this is
  # where tsan earns its keep: N writers racing a concurrent drain). The
  # perf gates — tens-of-ns record path, recorder-on within 5% of
  # recorder-off on the QWorker pipeline — run in plain only.
  echo "==== [$name] flight recorder smoke ===="
  (cd "$dir" && ./bench/bench_flight_recorder --smoke $agg_flags \
    --out BENCH_flightrec_smoke.json >/dev/null)
  # Tenant fairness smoke: the isolation contract (victim never shed,
  # aggressor shed at a positive rate, no silent drops) must hold in every
  # config; the perf gate (unisolated flood sheds the victim, isolated
  # victim p99 no worse) is timing-sensitive and runs plain-only.
  echo "==== [$name] tenant fairness smoke ===="
  (cd "$dir" && ./bench/bench_tenant_fairness --smoke $agg_flags \
    --out BENCH_tenant_smoke.json >/dev/null)
  # Sched latency smoke: the lane-scheduling contract (interactive p99
  # within max(10x unloaded p99, 20 ms) under a flood of queued batch
  # tasks and under back-to-back batch-lane ParallelFor batches, whose
  # helpers must yield between indices; the same-lane FIFO baseline
  # violating that bound; batch still making progress) must hold in
  # every config — the flood sleeps rather than spins, so queueing delay
  # survives sanitizer slowdowns. The 2x separation perf gate runs
  # plain-only.
  echo "==== [$name] sched latency smoke ===="
  (cd "$dir" && ./bench/bench_sched_latency --smoke $agg_flags \
    --out BENCH_sched_smoke.json >/dev/null)
  # Trace smoke: `querc trace` must reassemble per-query traces from the
  # journal and emit Perfetto-loadable JSON end to end.
  echo "==== [$name] trace smoke ===="
  "$dir/tools/querc" trace --queries 60 --accounts 2 --users 2 --epochs 2 \
    --shards 2 --slowest 3 --out "$dir/BENCH_trace_smoke.json" >/dev/null
  echo "==== [$name] ok ===="
}

# Static thread-safety-analysis leg: compile everything under clang with
# -Wthread-safety promoted to an error (QUERC_THREAD_SAFETY=ON). The
# analysis is compile-time only, so this leg builds but does not run the
# ctest/smoke battery — the runtime contracts are already covered by the
# other configs.
run_tsafety() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "==== [tsafety] clang++ not found on PATH; skipping (ok) ===="
    return 0
  fi
  local dir="$repo_root/build-tsafety"
  echo "==== [tsafety] configure: clang++ -DQUERC_THREAD_SAFETY=ON ===="
  cmake -B "$dir" -S "$repo_root" \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DQUERC_THREAD_SAFETY=ON >/dev/null
  echo "==== [tsafety] build ===="
  cmake --build "$dir" -j "$jobs"
  echo "==== [tsafety] ok ===="
}

for config in $configs; do
  case "$config" in
    plain)
      run_config plain "$repo_root/build" -DQUERC_WERROR=ON ;;
    asan)
      run_config asan "$repo_root/build-asan" \
        -DQUERC_SANITIZE=address,undefined ;;
    tsan)
      run_config tsan "$repo_root/build-tsan" -DQUERC_SANITIZE=thread ;;
    release)
      build_and_test release "$repo_root/build-release" \
        -DCMAKE_BUILD_TYPE=Release -DQUERC_WERROR=ON
      echo "==== [release] ok ====" ;;
    tsafety)
      run_tsafety ;;
    *)
      echo "verify_matrix: unknown config '$config'" >&2
      exit 2 ;;
  esac
done
echo "verify_matrix: all configs passed: $configs"
