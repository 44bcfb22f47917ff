#!/usr/bin/env bash
# Builds the project under one or more sanitizers (PEPPHER_SANITIZE build
# trees) and runs the test suite under each. Usage:
#
#   tools/run_sanitizers.sh [thread|address|undefined|all[,...]] \
#                           [build-dir] [-- extra ctest args]
#
# Examples:
#   tools/run_sanitizers.sh                      # all three, build-<san> trees
#   tools/run_sanitizers.sh thread               # TSan only
#   tools/run_sanitizers.sh address,undefined    # ASan then UBSan
#   tools/run_sanitizers.sh all -- -R 'Chaos|FaultInjection|EngineStress'
#                                                # concurrency suites (chaos,
#                                                # fault injection, and the
#                                                # multi-producer engine
#                                                # stress tests) under each
#                                                # sanitizer; the TSan pass
#                                                # over EngineStress is what
#                                                # validates the lock-light
#                                                # hot path's memory ordering
#
# A custom build-dir only makes sense with a single sanitizer; with several,
# each gets its own build-<sanitizer> tree next to the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

selection="all"
if [[ $# -gt 0 && "$1" != "--" && "$1" != /* && ! -d "$1" ]]; then
  case "$1" in
    thread|address|undefined|all|*,*) selection="$1"; shift ;;
  esac
fi

build_dir=""
if [[ $# -gt 0 && "$1" != "--" ]]; then
  build_dir="$1"
  [[ "${build_dir}" = /* ]] || build_dir="${repo_root}/${build_dir}"
  shift
fi
[[ "${1:-}" == "--" ]] && shift
extra_ctest_args=("$@")

if [[ "${selection}" == "all" ]]; then
  sanitizers=(thread address undefined)
else
  IFS=',' read -r -a sanitizers <<< "${selection}"
fi

if [[ -n "${build_dir}" && "${#sanitizers[@]}" -gt 1 ]]; then
  echo "run_sanitizers.sh: a build-dir needs a single sanitizer" >&2
  exit 2
fi

# halt_on_error makes a finding fail the offending test instead of only
# printing a report; second_deadlock_stack improves TSan lock-order reports.
# ASan checks for leaks too (its default).
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

failed=()
for sanitizer in "${sanitizers[@]}"; do
  case "${sanitizer}" in
    thread|address|undefined) ;;
    *)
      echo "run_sanitizers.sh: unknown sanitizer '${sanitizer}'" >&2
      exit 2
      ;;
  esac
  dir="${build_dir:-${repo_root}/build-${sanitizer}}"

  echo "== configuring ${dir} with PEPPHER_SANITIZE=${sanitizer}"
  cmake -S "${repo_root}" -B "${dir}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DPEPPHER_SANITIZE="${sanitizer}" >/dev/null

  echo "== building (${sanitizer})"
  cmake --build "${dir}" -j "$(nproc)"

  echo "== running tests under ${sanitizer} sanitizer"
  # Sanitized binaries are several times slower: scale the per-test timeout.
  if ctest --test-dir "${dir}" --output-on-failure --timeout 1500 \
       "${extra_ctest_args[@]}"; then
    echo "== ${sanitizer}: PASS"
  else
    echo "== ${sanitizer}: FAIL"
    failed+=("${sanitizer}")
  fi
done

if [[ "${#failed[@]}" -gt 0 ]]; then
  echo "run_sanitizers.sh: failures under: ${failed[*]}" >&2
  exit 1
fi
echo "== all sanitizer runs passed: ${sanitizers[*]}"
