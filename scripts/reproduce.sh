#!/usr/bin/env bash
# Build, test, and regenerate every reproduced figure/experiment of the paper.
# Outputs land in test_output.txt and bench_output.txt at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt

# TSAN=1 additionally runs the `parallel`-, `resilience`-, `obs`-, `simd`-,
# `fabric`-, `ml`-, `scenario`-, and `tracing`-labeled determinism/race
# suites — campaign engine, the live telemetry pipeline (event-ring producers
# vs the aggregator drain and serve threads), the chunked campaign engine with
# its thread-local arenas and concurrent checkpoint snapshots, the
# Predictor's background trainer racing
# observers/scorers, the scenario engine's threaded composed campaigns, and
# the distributed-tracing/flight-recorder paths (concurrent span id handoff,
# the mmap'd flight ring's multi-writer cursor) — under ThreadSanitizer (the
# `tsan` CMake preset).
if [ "${TSAN:-0}" = "1" ]; then
  cmake --preset tsan
  cmake --build build-tsan --target lore_parallel_tests lore_resilience_tests lore_obs_tests lore_simd_tests lore_fabric_tests lore_ml_batch_tests lore_scenario_tests lore_tracing_tests
  ctest --test-dir build-tsan -L '(parallel|resilience|obs|simd|fabric|ml|scenario|tracing)' --output-on-failure 2>&1 | tee tsan_output.txt
fi

# UBSAN=1 runs the `resilience`, `simd`, `ml`, `fabric`, `tracing`,
# `scenario`, `obs` and `rollback` suites under UndefinedBehaviorSanitizer
# (the `ubsan` preset: -fsanitize=undefined -fno-sanitize-recover=all), so
# the first undefined operation aborts the test that reached it.
if [ "${UBSAN:-0}" = "1" ]; then
  cmake --preset ubsan
  cmake --build build-ubsan --target lore_resilience_tests lore_simd_tests lore_ml_batch_tests lore_fabric_tests lore_tracing_tests lore_scenario_tests lore_obs_tests lore_rollback_tests
  ctest --preset ubsan 2>&1 | tee ubsan_output.txt
fi

# Smoke the -DLORE_OBS=OFF build (the `obs-off` preset): the telemetry
# pipeline compiles out to no-ops, campaigns still run, and the obs suite's
# compile-switch-aware tests pass against the stubbed Pipeline/Aggregator.
if [ "${OBS_OFF:-0}" = "1" ]; then
  cmake --preset obs-off
  cmake --build build-obs-off --target lore_obs_tests
  ctest --test-dir build-obs-off -L obs --output-on-failure 2>&1 | tee obs_off_output.txt
fi

# Smoke the -DLORE_SIMD=OFF build (the `simd-off` preset): the AVX2 kernel
# variants compile out, dispatch clamps to scalar, and the differential
# `simd` suite still proves the campaign engine against the per-trial oracle.
if [ "${SIMD_OFF:-0}" = "1" ]; then
  cmake --preset simd-off
  cmake --build build-simd-off --target lore_simd_tests
  ctest --test-dir build-simd-off -L simd --output-on-failure 2>&1 | tee simd_off_output.txt
fi

# PRUNE=1 smokes the online predict-and-prune campaign loop end to end: the
# example warms a Predictor on a real fault-injection campaign, prunes a
# second campaign, and --verify re-runs it with audit=1.0, exiting 1 unless
# the executed outcomes are bit-identical to the unpruned reference.
if [ "${PRUNE:-0}" = "1" ]; then
  cmake --build build --target ex_predict_prune
  ./build/examples/predict_prune --verify 2>&1 | tee prune_output.txt
fi

# SCENARIO=1 smokes the declarative scenario DSL end to end: each committed
# .scenario.json is re-run at 1/4/hw threads by `lore_scenario --verify`
# (exit 1 unless the result fingerprints are bit-identical), then a seeded
# 100-scenario generative sweep runs the differential invariant checker
# across every composed campaign.
if [ "${SCENARIO:-0}" = "1" ]; then
  cmake --build build --target ex_lore_scenario
  : > scenario_output.txt
  for s in scenarios/*.scenario.json; do
    ./build/examples/lore_scenario --verify "$s" 2>&1 | tee -a scenario_output.txt
  done
  ./build/examples/lore_scenario --sweep 100 --seed 2026 2>&1 | tee -a scenario_output.txt
fi

# FABRIC=1 smokes the sharded multi-process campaign fabric end to end: a
# 2-worker coordinator run of the same campaign as the single-process
# reference, diffed by the driver's --verify (exit 1 on any bit difference).
if [ "${FABRIC:-0}" = "1" ]; then
  cmake --build build --target ex_lore_fabric
  ./build/examples/lore_fabric --campaign arch.fault --workload dot_product \
    --scale 16 --trials 400 --workers 2 --verify 2>&1 | tee fabric_output.txt
  ./build/examples/lore_fabric --campaign arch.pipeline --workload checksum \
    --scale 12 --trials 200 --workers 2 --verify 2>&1 | tee -a fabric_output.txt
fi

# POSTMORTEM=1 smokes the crash-forensics path end to end: a 2-worker fabric
# run with per-worker flight rings, one worker SIGKILLed mid-campaign. The
# campaign must still verify bit-identical (straggler re-dispatch), and
# lore_postmortem.py decoding the dead worker's torn ring must name the
# fabric shard that was inflight at death.
if [ "${POSTMORTEM:-0}" = "1" ]; then
  cmake --build build --target ex_lore_fabric
  FLIGHT_DIR="$(mktemp -d)"
  # matmul is heavy enough that the 200ms kill is guaranteed to land while
  # the victim is still mid-shard (the whole campaign runs for seconds).
  ./build/examples/lore_fabric --campaign arch.fault --workload matmul \
    --scale 16 --trials 4000 --workers 2 --shards 8 --verify \
    --flight-dir "$FLIGHT_DIR" --chaos-kill 200 2>&1 | tee postmortem_output.txt
  KILLED_PID="$(sed -n 's/^chaos: killed worker pid=\([0-9]*\)$/\1/p' postmortem_output.txt)"
  python3 scripts/lore_postmortem.py "$FLIGHT_DIR/flight-$KILLED_PID.ring" \
    2>&1 | tee -a postmortem_output.txt
  grep -q "inflight fabric shard at death:" postmortem_output.txt \
    || { echo "POSTMORTEM: decoded ring did not name the inflight shard" >&2; exit 1; }
  rm -rf "$FLIGHT_DIR"
fi

: > bench_output.txt
# Each bench also drops a machine-readable BENCH_<name>.json artifact
# (schema lore.bench.v1) into $LORE_BENCH_DIR.
export LORE_BENCH_DIR="${LORE_BENCH_DIR:-bench_artifacts}"
mkdir -p "$LORE_BENCH_DIR"
# Figure-series campaigns checkpoint into $LORE_CHECKPOINT_DIR, so an
# interrupted run of this script resumes instead of restarting: rerun it and
# every completed trial is loaded from its .ckpt file. The directory is
# removed once the whole bench suite finishes cleanly.
export LORE_CHECKPOINT_DIR="${LORE_CHECKPOINT_DIR:-$LORE_BENCH_DIR/checkpoints}"
mkdir -p "$LORE_CHECKPOINT_DIR"
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    "$b" 2>&1 | tee -a bench_output.txt
  fi
done
rm -rf "$LORE_CHECKPOINT_DIR"

# Aggregate the artifacts into one trajectory report (stdlib-only python3).
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_report.py "$LORE_BENCH_DIR" 2>&1 | tee bench_report.txt
else
  echo "python3 not found; skipping bench_report.py" | tee bench_report.txt
fi

# BENCH_CHECK=1 gates the run on the committed baseline: any *per_s
# throughput in this run's artifacts more than BENCH_TOLERANCE percent
# (default 25) below bench/samples/ fails the script. The generous default
# absorbs machine noise; tighten it on a quiet, pinned box.
if [ "${BENCH_CHECK:-0}" = "1" ]; then
  python3 scripts/bench_report.py --check bench/samples "$LORE_BENCH_DIR" \
    --tolerance "${BENCH_TOLERANCE:-25}" 2>&1 | tee bench_check.txt
fi
echo "done: see test_output.txt, bench_output.txt, and bench_report.txt"
