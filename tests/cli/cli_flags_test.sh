#!/bin/sh
# Flag handling of the command-line tools: a malformed or out-of-range
# numeric flag is a usage error (exit 2), never a quietly different run.
#
#   sh cli_flags_test.sh IOSIMCTL BENCH_COMPARE IOSIM_SWEEP SOURCE_DIR
#
# Registered with ctest under the `cli` label (`ctest -L cli`).
iosimctl=$1
bench_compare=$2
sweep=$3
src=$4
failures=0

expect_usage_error() {
  "$@" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL (exit $code, want 2): $*"
    failures=$((failures + 1))
  else
    echo "ok: $*"
  fi
}

expect_usage_error "$iosimctl" run --hosts 2x --vms 1 --mb 8
expect_usage_error "$iosimctl" run --hosts 1 --vms 1 --mb -5
expect_usage_error "$iosimctl" run --hosts 1 --vms 1 --mb 8 --seed -1
expect_usage_error "$iosimctl" adapt --phases 7 --hosts 1 --vms 1 --mb 8
expect_usage_error "$bench_compare" "$src/bench/baselines/micro_sim.json" \
  "$src/bench/baselines/micro_sim.json" --max-regress nan
expect_usage_error "$sweep" --spec "$src/bench/specs/smoke.spec" --set base_seed=-1 --dry-run

[ "$failures" -eq 0 ]
