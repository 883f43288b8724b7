#!/usr/bin/env bash
# Configures, builds, and runs the full test suite under a sanitizer build
# (the ROCKHOPPER_SANITIZE option), then the smokes below. Each sanitizer
# uses its own build directory so the regular build stays untouched.
#
# Usage: tools/run_sanitized_tests.sh [asan|tsan] [ctest-args...]
#   asan (default): AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan:           ThreadSanitizer — exercises the sharded service, the
#                   striped stores, concurrent journal appends and shared
#                   Syncs, the
#                   ThreadPool / experiment-runner tests (shutdown under
#                   load, concurrent ParallelFor, parallel arms), the
#                   QueryPlan stats cache's CAS publication, and the
#                   epoll front end (multi-thread event loop, session
#                   batching, admission sampling) via the closing
#                   serve → loadgen loopback smoke
#
# The documented check is the unfiltered run of both modes:
#   tools/run_sanitized_tests.sh asan && tools/run_sanitized_tests.sh tsan
# Extra ctest arguments (for example -R) narrow the suite for debugging only.
#
# Sanitized builds compile with -DROCKHOPPER_SIM=ON so the Buggify fault
# sections (src/sim/buggify.h) are live: the suite's sim tests and the
# closing `rockhopper simulate` smoke sweep drive the injected journal /
# model-store / pipeline failure paths under the sanitizer.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode="asan"
if [[ $# -gt 0 && ( "$1" == "asan" || "$1" == "tsan" ) ]]; then
  mode="$1"
  shift
fi

case "${mode}" in
  asan)
    build_dir="${ROCKHOPPER_SANITIZE_BUILD_DIR:-${repo_root}/build-asan}"
    sanitize_value="address"
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
    ;;
  tsan)
    build_dir="${ROCKHOPPER_SANITIZE_BUILD_DIR:-${repo_root}/build-tsan}"
    sanitize_value="thread"
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
    ;;
esac

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DROCKHOPPER_SANITIZE="${sanitize_value}" \
  -DROCKHOPPER_SIM=ON \
  -DROCKHOPPER_BUILD_BENCHMARKS=OFF \
  -DROCKHOPPER_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)"

ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"

# Transfer-tier smoke under the sanitizer: the HNSW build/search suite and
# the tier facade, rerun explicitly so the 8-thread concurrent
# insert+search test (TransferIndexTest.ConcurrentRegisterAndSearchIsSafe)
# is visibly part of the gate — it must be clean under TSan in particular.
echo "== ${mode}: transfer-tier HNSW build/search + concurrency =="
"${build_dir}/tests/rockhopper_ml_test" --gtest_filter='HnswIndexTest.*'
"${build_dir}/tests/rockhopper_core_test" \
  --gtest_filter='TransferIndexTest.*:TransferServiceTest.*'

# Simulation smoke sweep under the sanitizer: a handful of Buggify-armed
# whole-service runs (crash, torn tail, recovery) with every injected fault
# section live.
echo "== ${mode}: rockhopper simulate smoke sweep =="
"${build_dir}/tools/rockhopper" simulate --seeds=1..5 \
  --scratch="${build_dir}/sim-scratch"

# Serving smoke under the sanitizer: a real epoll server with two I/O
# threads, a resident-state budget tight enough to churn the clock hand and
# a checkpoint every 50 accepted observations, takes loopback traffic from a
# multi-threaded loadgen (closed-loop workers plus an open-loop noisy tenant
# hammering the token buckets), then drains on SIGTERM; an offline
# checkpoint and a chain recovery of the image follow. Eviction, fault-in,
# rotate and truncate race live ingest, the event loop, the session batcher,
# the admission sampler and concurrent journal Syncs under the sanitizer.
echo "== ${mode}: tiered serve → loadgen + checkpoint + recover smoke =="
net_scratch="${build_dir}/net-scratch"
rm -rf "${net_scratch}"
mkdir -p "${net_scratch}"
"${build_dir}/tools/rockhopper" serve --listen=127.0.0.1:0 --io-threads=2 \
  --journal="${net_scratch}/serve.journal" --tenant-rate=500 \
  --state-dir="${net_scratch}/store" --memory-budget=65536 \
  --checkpoint-interval=50 --metrics-format=off \
  > "${net_scratch}/serve.log" 2>&1 &
serve_pid=$!
serve_port=""
for _ in $(seq 100); do
  serve_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "${net_scratch}/serve.log" | head -1)"
  [[ -n "${serve_port}" ]] && break
  if ! kill -0 "${serve_pid}" 2> /dev/null; then
    echo "ERROR: sanitized serve died during startup:" >&2
    cat "${net_scratch}/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
[[ -n "${serve_port}" ]] || { echo "ERROR: serve never bound" >&2; exit 1; }
"${build_dir}/tools/rockhopper" loadgen --host=127.0.0.1 \
  "--port=${serve_port}" --tenants=2 --concurrency=2 --noisy-rate=2000 \
  --duration-s=3 --propose-fraction=0.05 --json=true
kill -TERM "${serve_pid}"
if ! wait "${serve_pid}"; then
  echo "ERROR: sanitized serve exited nonzero:" >&2
  cat "${net_scratch}/serve.log" >&2
  exit 1
fi
cat "${net_scratch}/serve.log"
if ! grep -q 'journal checkpoints: [1-9]' "${net_scratch}/serve.log"; then
  echo "ERROR: serve published no checkpoint while serving" >&2
  exit 1
fi
"${build_dir}/tools/rockhopper" checkpoint \
  --journal="${net_scratch}/serve.journal"
"${build_dir}/tools/rockhopper" recover --suite=tpcds \
  --journal="${net_scratch}/serve.journal"
