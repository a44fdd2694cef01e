#!/usr/bin/env bash
# run_bench.sh — build the benchmarks in Release and record the solver
# micro-benchmarks as machine-readable JSON (BENCH_solver.json at the repo
# root), starting the perf trajectory the acceptance criteria compare
# against.
#
# Each benchmark binary runs fail-fast: a crash (or a bench that dies after
# writing a partial JSON file) aborts the refresh with a pointed message
# instead of silently merging a truncated fragment into BENCH_solver.json.
#
# Usage: scripts/run_bench.sh [build-dir] [output.json]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/BENCH_solver.json}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release -DLIQUID3D_BUILD_BENCH=ON >/dev/null
cmake --build "${build_dir}" \
  --target bench_micro_solver bench_serve bench_obs -j "$(nproc)"

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

# Run one benchmark binary and refuse to proceed unless it exits 0 AND its
# JSON fragment parses.  google-benchmark streams --benchmark_out as it
# goes, so a mid-run SIGSEGV leaves a syntactically broken file behind —
# without the parse check that partial fragment would merge "successfully"
# and quietly drop every benchmark after the crash point.
run_bench() {
  local binary="$1" fragment="$2" filter="$3"
  local status=0
  "${build_dir}/${binary}" \
    --benchmark_format=json \
    --benchmark_out="${fragment}" \
    --benchmark_out_format=json \
    --benchmark_filter="${filter}" || status=$?
  if [[ "${status}" -ne 0 ]]; then
    echo "run_bench.sh: ${binary} exited with status ${status}; aborting" \
      "before merging partial results" >&2
    exit "${status}"
  fi
  if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      "${fragment}"; then
    echo "run_bench.sh: ${binary} wrote invalid JSON to ${fragment};" \
      "aborting before merge" >&2
    exit 1
  fi
}

# BM_SteadyState also matches BM_SteadyStatePerCavity (the vector-flow
# assembly benchmark) by prefix; keep both in the JSON.  BM_BandedLu* are
# the direct path's kernels, which BM_EliminatedAssemble* (the liquid
# operator's assembly) joins.  BM_TransientStep/100/115/* steps the paper's
# 100 um grid, whose 4-layer band takes 339 MB and a second to factorize.
run_bench bench_micro_solver "${tmp_dir}/micro.json" \
  'BM_BandedLu|BM_EliminatedAssemble|BM_TransientStep|BM_BatchedTransient|BM_SteadyState|BM_FlowLut'

# Service latency/throughput: steady-query p50/p99 (acceptance: warm-ROM
# p50 <= 25 us on the 2-layer Niagara liquid stack), batched vs serial
# what-if throughput (acceptance: batched >= serial sessions/s), and the
# envelope codec alone on the wire workload's steady request.
run_bench bench_serve "${tmp_dir}/serve.json" 'BM_Serve|BM_Envelope'

# Observability overhead: the killed-switch histogram record must stay
# single-digit nanoseconds and the enabled record in the tens.
run_bench bench_obs "${tmp_dir}/obs.json" \
  'BM_MetricsHotPath|BM_CounterAdd|BM_ScopedTimer'

python3 "${repo_root}/scripts/merge_bench_json.py" \
  "${out_json}" "${tmp_dir}/micro.json" "${tmp_dir}/serve.json" \
  "${tmp_dir}/obs.json"

echo "wrote ${out_json}"
