#!/usr/bin/env bash
# Benchmark regression driver for CrowdSky.
#
# Builds the release preset (if needed), runs every paper-figure bench
# binary plus the google-benchmark micro-benchmarks, and collects one
# machine-readable JSON report per binary in the output directory:
#
#   BENCH_<name>.json        one per figure binary (schema_version 1:
#                            bench, git_rev, threads, runs, scale,
#                            wall_seconds, cells[], num_cells)
#   BENCH_micro.json         google-benchmark JSON ("benchmarks" array)
#
# Usage:
#   scripts/run_benchmarks.sh [--smoke] [--out-dir DIR] [--build-dir DIR]
#                             [--threads N] [--only NAME[,NAME...]] [--list]
#
#   --smoke      fast CI mode: CROWDSKY_BENCH_RUNS=1,
#                CROWDSKY_BENCH_SCALE=0.05, and micro benches capped with
#                --benchmark_min_time. Validates the same schema.
#   --out-dir    where BENCH_*.json land (default: bench-results)
#   --build-dir  build tree to use (default: build/release)
#   --threads    sets CROWDSKY_THREADS for every binary
#   --only       comma-separated subset of bench names to run (see --list)
#   --list       print the available bench names and exit
set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "${repo_root}"

smoke=0
out_dir="bench-results"
build_dir="build/release"
threads=""
only=""
list_only=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1; shift ;;
    --out-dir) out_dir="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --threads) threads="$2"; shift 2 ;;
    --only) only="$2"; shift 2 ;;
    --list) list_only=1; shift ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "error: unknown argument: $1" >&2; exit 2 ;;
  esac
done

benches=(toy_walkthrough fig6_questions_ind fig7_questions_ant
         fig8_rounds_cardinality fig9_rounds_dimensionality
         fig10_voting_accuracy fig11_accuracy_comparison
         fig12_real_datasets ablations robustness_sweep durability_sweep
         hotpath_sweep governor_sweep service_sweep distributed_sweep)

if [[ ${list_only} -eq 1 ]]; then
  printf '%s\n' "${benches[@]}" micro | LC_ALL=C sort
  exit 0
fi

# Reject unknown --only names up front; a typo would otherwise run nothing
# and fail later with a confusing "no reports produced" error.
if [[ -n "${only}" ]]; then
  IFS=',' read -r -a only_names <<< "${only}"
  for name in "${only_names[@]}"; do
    known=0
    for bench in "${benches[@]}" micro; do
      [[ "${name}" == "${bench}" ]] && known=1
    done
    if [[ ${known} -eq 0 ]]; then
      echo "error: unknown bench name '${name}' in --only;" \
           "run with --list to see the available names" >&2
      exit 2
    fi
  done
fi
if [[ ${smoke} -eq 1 ]]; then
  export CROWDSKY_BENCH_RUNS=1
  export CROWDSKY_BENCH_SCALE="${CROWDSKY_BENCH_SCALE:-0.05}"
fi
if [[ -n "${threads}" ]]; then
  export CROWDSKY_THREADS="${threads}"
fi

if [[ ! -x "${build_dir}/bench/micro_benchmarks" ]]; then
  if [[ "${build_dir}" == "build/release" ]]; then
    echo "== configuring and building (${build_dir}) =="
    cmake --preset release >/dev/null
    cmake --build --preset release -j "$(nproc)" >/dev/null
  elif [[ ! -d "${build_dir}" ]]; then
    echo "error: build directory '${build_dir}' does not exist;" \
         "configure and build it first (e.g. cmake --preset release &&" \
         "cmake --build --preset release)" >&2
    exit 2
  else
    echo "error: '${build_dir}' has no bench binaries; build it first." >&2
    exit 2
  fi
fi

mkdir -p "${out_dir}"
export CROWDSKY_BENCH_OUT_DIR="${out_dir}"
CROWDSKY_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export CROWDSKY_GIT_REV

selected() {
  [[ -z "${only}" ]] && return 0
  [[ ",${only}," == *",$1,"* ]]
}

failures=0
for bench in "${benches[@]}"; do
  selected "${bench}" || continue
  bin="${build_dir}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: missing bench binary ${bin}" >&2
    failures=$((failures + 1))
    continue
  fi
  echo "== ${bench} =="
  bench_args=()
  # hotpath_sweep owns its cell sizes (up to 10^6 tuples); in smoke mode it
  # takes an explicit flag instead of the env scale so CI runs CI-sized
  # cells rather than a scaled-down million-tuple sweep.
  if [[ "${bench}" == "hotpath_sweep" && ${smoke} -eq 1 ]]; then
    bench_args+=(--smoke)
  fi
  if ! "${bin}" "${bench_args[@]}" > "${out_dir}/${bench}.log" 2>&1; then
    echo "error: ${bench} failed; tail of log:" >&2
    tail -20 "${out_dir}/${bench}.log" >&2
    failures=$((failures + 1))
  fi
done

if selected micro; then
  echo "== micro_benchmarks =="
  micro_args=(--benchmark_format=console
              "--benchmark_out=${out_dir}/BENCH_micro.json"
              --benchmark_out_format=json)
  if [[ ${smoke} -eq 1 ]]; then
    micro_args+=(--benchmark_min_time=0.01
                 --benchmark_filter='BM_(DominanceStructureBuild|ReduceToAcSkyline|BitsetOrWithCount|BitsetAndNotCount|PreferenceGraph|Csv)')
  fi
  if ! "${build_dir}/bench/micro_benchmarks" "${micro_args[@]}" \
      > "${out_dir}/micro_benchmarks.log" 2>&1; then
    echo "error: micro_benchmarks failed; tail of log:" >&2
    tail -20 "${out_dir}/micro_benchmarks.log" >&2
    failures=$((failures + 1))
  fi
fi

echo "== validating JSON reports =="
validate_with_python() {
  python3 - "$@" <<'EOF'
import json, sys
failures = 0
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except Exception as e:  # noqa: BLE001 - report any parse failure
        print(f"INVALID {path}: {e}")
        failures += 1
        continue
    if path.endswith("BENCH_micro.json"):
        ok = isinstance(doc.get("benchmarks"), list) and doc["benchmarks"]
        detail = "google-benchmark 'benchmarks' array"
    else:
        ok = (doc.get("schema_version") == 1
              and isinstance(doc.get("bench"), str)
              and isinstance(doc.get("threads"), int)
              and isinstance(doc.get("cells"), list)
              and doc.get("num_cells") == len(doc["cells"])
              and all(isinstance(c.get("metrics"), dict) for c in doc["cells"]))
        detail = "schema_version-1 cell report"
    if ok:
        print(f"ok {path} ({detail})")
    else:
        print(f"INVALID {path}: does not match {detail}")
        failures += 1
sys.exit(1 if failures else 0)
EOF
}

validate_with_grep() {
  # Degraded validation when python3 is unavailable: look for the
  # load-bearing keys so a truncated or empty report still fails.
  local rc=0
  for path in "$@"; do
    if [[ "${path}" == *BENCH_micro.json ]]; then
      grep -q '"benchmarks"' "${path}" || { echo "INVALID ${path}" >&2; rc=1; }
    else
      grep -q '"schema_version": 1' "${path}" &&
        grep -q '"cells"' "${path}" || { echo "INVALID ${path}" >&2; rc=1; }
    fi
  done
  return "${rc}"
}

shopt -s nullglob
reports=("${out_dir}"/BENCH_*.json)
shopt -u nullglob
if [[ ${#reports[@]} -eq 0 ]]; then
  echo "error: no BENCH_*.json reports were produced in ${out_dir}" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  validate_with_python "${reports[@]}" || failures=$((failures + 1))
else
  validate_with_grep "${reports[@]}" || failures=$((failures + 1))
fi

if [[ ${failures} -gt 0 ]]; then
  echo "run_benchmarks: ${failures} failure(s)" >&2
  exit 1
fi
echo "run_benchmarks: all reports written to ${out_dir}"
