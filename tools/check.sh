#!/usr/bin/env bash
# One-stop verification gate: strict build, full test suite, the smoke
# stages (figure binary, telemetry bundle, shard identity, service-mode
# daemon), project lint (iscope_lint), clang-tidy (when installed),
# sanitizer passes over the tests (UBSan with float-cast-overflow, ASan
# over the shard suite, TSan over the faulted shards' shared fault plan and
# the pinned sharded-thermal rows at 4 workers), a line-coverage floor
# for the fault-injection and scheduling layers, the simulator's
# subsystem drivers and the binary codec, and (opt-in) a short perfbench
# run of each workload.
#
# Usage:  tools/check.sh [--fast] [--stage <name>] [--help]
#   --fast          skip the UBSan/ASan/TSan rebuilds and the coverage
#                   stage (strict build + tests + smokes + lint + tidy)
#   --stage <name>  run a single named stage (plus the strict build it
#                   depends on, where applicable)
#   --help          list the stages and exit
#
# Exits non-zero on the first failing stage. Build trees are kept under
# build-check/ so the developer's main build/ directory is untouched.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
# Minimum line coverage (percent) the fault + sched layers, the
# simulator's subsystem drivers and the binary codec (wire.cpp and the
# serial.hpp adapters) must keep: a measured 98.46% of 1361 gated lines,
# minus one point, rounded down. Drops below the floor mean dead branches
# crept in, the fault suites stopped exercising the recovery paths, or a
# payload's refusals went untested.
COVERAGE_MIN=97

# Stage registry: name -> one-line description, in default running order.
STAGES=(
  "strict          strict build (-Werror -Wconversion -Wdouble-promotion, audit on)"
  "tests           full ctest suite on the strict build"
  "bench-smoke     fig8 figure binary: comparison lines + ISCOPE_TELEMETRY report bundle; forecast ablation under CPU faults; every *Sleep scheme sleeps"
  "telemetry-smoke report bundle + registry/SimResult cross-check"
  "shard-identity  1-shard bit-identity + worker-count determinism"
  "service         iscope_serve daemon: checkpoint identity, e2e stream-vs-batch, wire fuzz"
  "thermal         thermal/sleep off-identity + sharded thermal determinism (TSan smoke rides in the tsan stage)"
  "lint            iscope_lint project invariants (determinism/layering/quantity/telemetry)"
  "tidy            clang-tidy profile, warnings-as-errors (skips if not installed)"
  "ubsan           UBSan rebuild (+ float-cast-overflow) + full tests"
  "asan            ASan fault-injection + parser-fuzz + cluster-fabrication + placement + shard tests"
  "tsan            TSan shard determinism (faulted shards' cursors on one shared plan included) + multi-shard smoke (fig8, 4 shards x 4 workers) + pinned sharded-thermal rows + service chaos daemon + threaded cluster build"
  "coverage        src/fault + src/sched + sim driver + codec line-coverage floor (${COVERAGE_MIN}%)"
  "perfbench       1 s perfbench run per workload: exit 0, correct, no failed ops (opt-in: --stage only)"
)

usage() {
  sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
  printf '\nStages (default order; --fast stops after tidy):\n'
  for s in "${STAGES[@]}"; do printf '  %s\n' "$s"; done
}

FAST=0
ONLY_STAGE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --fast) FAST=1 ;;
    --stage)
      [ $# -ge 2 ] || { echo "--stage needs a name (see --help)" >&2; exit 2; }
      ONLY_STAGE="$2"; shift ;;
    --help|-h) usage; exit 0 ;;
    *) echo "unknown argument: $1 (see --help)" >&2; exit 2 ;;
  esac
  shift
done

if [ -n "$ONLY_STAGE" ]; then
  known=0
  for s in "${STAGES[@]}"; do
    [ "${s%% *}" = "$ONLY_STAGE" ] && known=1
  done
  [ "$known" -eq 1 ] \
      || { echo "unknown stage: $ONLY_STAGE (see --help)" >&2; exit 2; }
fi

stage() { printf '\n==== %s ====\n' "$1"; }

# True when the named stage should run under the current selection.
want() {
  if [ -n "$ONLY_STAGE" ]; then [ "$1" = "$ONLY_STAGE" ]; return; fi
  case "$1" in
    ubsan|asan|tsan|coverage) [ "$FAST" -eq 0 ] ;;
    # Opt-in only: it builds a second tree (.bench_build/) and runs the
    # daemon; performance itself is judged by paired runs, not here.
    perfbench) false ;;
    *) true ;;
  esac
}

# The strict tree backs several stages; configure once, build on demand.
ensure_strict() {
  cmake -B build-check/strict -S . \
        -DISCOPE_WERROR=ON -DISCOPE_AUDIT=ON > /dev/null
  cmake --build build-check/strict -j "$JOBS" ${1:+--target "$1"}
}

stage_strict() {
  stage "strict build (-Werror -Wconversion -Wdouble-promotion, audit on)"
  ensure_strict
}

stage_tests() {
  stage "tests (strict build)"
  [ -n "$ONLY_STAGE" ] && ensure_strict > /dev/null
  ctest --test-dir build-check/strict --output-on-failure
}

stage_bench_smoke() {
  stage "bench smoke (fig8 comparison lines + ISCOPE_TELEMETRY bundle + forecast ablation under CPU faults + sleep ablation)"
  if [ -n "$ONLY_STAGE" ]; then
    ensure_strict bench_fig8_energy_cost > /dev/null
    ensure_strict bench_ablation_forecast > /dev/null
    ensure_strict bench_ablation_sleep > /dev/null
  fi
  BENCH_DIR="build-check/bench-smoke"
  rm -rf "$BENCH_DIR" && mkdir -p "$BENCH_DIR"
  ISCOPE_SCALE=0.2 ISCOPE_PARALLEL=1 ISCOPE_TELEMETRY="$BENCH_DIR/report" \
      ./build-check/strict/bench/bench_fig8_energy_cost > "$BENCH_DIR/stdout.txt"
  # Both the with-wind and the no-wind comparison must be printed.
  [ "$(grep -c 'ScanFair vs BinRan' "$BENCH_DIR/stdout.txt")" -eq 2 ] \
      || { echo "bench smoke: ScanFair vs BinRan lines missing" >&2;
           cat "$BENCH_DIR/stdout.txt" >&2; exit 1; }
  for f in metrics.prom metrics.json samples.csv trace.json; do
    [ -s "$BENCH_DIR/report/$f" ] \
        || { echo "bench smoke: report/$f missing or empty" >&2; exit 1; }
  done
  # Crashes and repairs on a bench's const Knowledge views: every scheme's
  # run must finish, not abort.
  ISCOPE_SCALE=0.2 ISCOPE_PARALLEL=1 ISCOPE_FAULTS=mtbf=180000,repair=1800 \
      ./build-check/strict/bench/bench_ablation_forecast \
      > "$BENCH_DIR/forecast_faults.txt" \
      || { echo "bench smoke: bench_ablation_forecast under CPU faults exited $?" >&2;
           cat "$BENCH_DIR/forecast_faults.txt" >&2; exit 1; }
  # The sleep ablation resolves BinRanSleep ... ScanFairSleep by name: each
  # row (labelled by its paper scheme) must count sleep-state entries.
  ISCOPE_SCALE=0.2 ISCOPE_PARALLEL=1 \
      ./build-check/strict/bench/bench_ablation_sleep \
      > "$BENCH_DIR/ablation_sleep.txt" \
      || { echo "bench smoke: bench_ablation_sleep exited $?" >&2;
           cat "$BENCH_DIR/ablation_sleep.txt" >&2; exit 1; }
  slept="$(awk '$1 ~ /^(BinRan|BinEffi|ScanRan|ScanEffi|ScanFair)$/ && $7 > 0' \
               "$BENCH_DIR/ablation_sleep.txt" | wc -l)"
  [ "$slept" -eq 5 ] \
      || { echo "bench smoke: $slept of 5 *Sleep schemes entered a sleep state" >&2;
           cat "$BENCH_DIR/ablation_sleep.txt" >&2; exit 1; }
  echo "bench smoke ok: fig8 printed, bundle in $BENCH_DIR/report, forecast ablation ran under faults, all five *Sleep schemes slept"
}

stage_telemetry_smoke() {
  stage "telemetry smoke (report bundle + registry/SimResult cross-check)"
  [ -n "$ONLY_STAGE" ] && ensure_strict iscope_cli > /dev/null
  TELEM_DIR="build-check/telemetry-smoke"
  rm -rf "$TELEM_DIR" && mkdir -p "$TELEM_DIR"
  ./build-check/strict/examples/iscope_cli simulate --scheme ScanEffi \
      --procs 64 --jobs 200 \
      --telemetry "$TELEM_DIR/report" --trace-out "$TELEM_DIR/trace_only.json" \
      > "$TELEM_DIR/stdout.txt"
  grep -q 'telemetry cross-check ok' "$TELEM_DIR/stdout.txt" \
      || { echo "telemetry smoke: cross-check line missing" >&2;
           cat "$TELEM_DIR/stdout.txt" >&2; exit 1; }
  for f in "$TELEM_DIR/report/metrics.prom" "$TELEM_DIR/report/metrics.json" \
           "$TELEM_DIR/report/samples.csv" "$TELEM_DIR/report/trace.json" \
           "$TELEM_DIR/trace_only.json"; do
    [ -s "$f" ] || { echo "telemetry smoke: $f missing or empty" >&2; exit 1; }
  done
  # The counters the CLI cross-checks must actually be in the exposition.
  grep -q '^iscope_sim_events_total{' "$TELEM_DIR/report/metrics.prom" \
      || { echo "telemetry smoke: iscope_sim_events_total absent" >&2; exit 1; }
  grep -q '"traceEvents"' "$TELEM_DIR/trace_only.json" \
      || { echo "telemetry smoke: trace_only.json lacks traceEvents" >&2; exit 1; }
  echo "telemetry bundle ok: $TELEM_DIR/report"
}

stage_shard_identity() {
  stage "shard identity (1-shard bit-identity + worker-count determinism)"
  [ -n "$ONLY_STAGE" ] && ensure_strict test_shard > /dev/null
  # The sharded simulator's hard invariant (DESIGN.md Sec. 12): one shard is
  # bit-identical to the legacy event loop across all five schemes, and
  # N-shard results do not move by a bit with the worker count.
  ./build-check/strict/tests/test_shard \
      --gtest_filter='ShardIdentity.*:ShardDeterminism.*' > /dev/null \
      || { echo "shard identity: test_shard invariants failed" >&2; exit 1; }
  echo "shard identity ok: 1-shard bitwise, N-shard worker-independent"
}

stage_service() {
  stage "service mode (iscope_serve: checkpoint identity, e2e stream-vs-batch, wire fuzz)"
  [ -n "$ONLY_STAGE" ] && ensure_strict > /dev/null
  # The daemon's three invariants (DESIGN.md Sec. 15): a restored checkpoint
  # replays bit-identically, the streamed decision path equals a batch run,
  # and the wire/checkpoint codecs reject hostile bytes as typed errors.
  # Each run fails the stage itself: under `set -e` a command that fails
  # on the left of `&&` neither exits the script nor fails the function.
  ./build-check/strict/tests/test_checkpoint > /dev/null \
      || { echo "service: test_checkpoint failed" >&2; exit 1; }
  echo "service ok: checkpoint identity (resume bitwise, 5 schemes), v3 golden blobs (GoldenCheckpoint.*V3 resume to digests pinned at v2; v2 blobs refused), CRC trailer (Rejection.ChecksumMismatch, CheckpointCrc.*)"
  ./build-check/strict/tests/test_service_e2e > /dev/null \
      || { echo "service: test_service_e2e failed" >&2; exit 1; }
  echo "service ok: daemon e2e (streamed decisions == batch, SIGTERM resume, README ScanTherm --thermal --sleep-policy timeout line == run_scheme)"
  ./build-check/strict/tests/test_fuzz_parsers --gtest_filter='*Service*' \
      > /dev/null \
      || { echo "service: test_fuzz_parsers service suites failed" >&2; exit 1; }
  echo "service ok: wire + checkpoint fuzz corpus (bit-flipped, torn and re-sealed hostile v3 blobs; re-sealed mutants reach the parser)"
}

stage_thermal() {
  stage "thermal (off-identity + accounting + sharded determinism + sleep)"
  [ -n "$ONLY_STAGE" ] && ensure_strict test_thermal > /dev/null
  # The subsystem's hard invariant (DESIGN.md Sec. 16): thermal disabled +
  # sleep off is bit-identical to the pre-subsystem tree, and N-shard
  # thermal runs are worker-count independent (coordinator-resolved CRAC).
  ./build-check/strict/tests/test_thermal \
      --gtest_filter='ThermalOffIdentity.*:ThermalDeterminism.*' > /dev/null \
      || { echo "thermal: identity/determinism suites failed" >&2; exit 1; }
  echo "thermal ok: off-identity bitwise, sharded runs worker-independent"
  ./build-check/strict/tests/test_thermal \
      --gtest_filter='-ThermalOffIdentity.*:ThermalDeterminism.*' > /dev/null \
      || { echo "thermal: model/accounting/scheme suites failed" >&2; exit 1; }
  echo "thermal ok: CRAC model, cooling/sleep accounting, ScanTherm schemes"
}

stage_lint() {
  stage "lint (iscope_lint: determinism / layering / quantity / telemetry)"
  # The project linter (tools/lint/, DESIGN.md Sec. 13): the tree must be
  # clean modulo the committed baseline (empty at merge). Fails with
  # file:line diagnostics naming the violated check.
  cmake -B build-check/strict -S . \
        -DISCOPE_WERROR=ON -DISCOPE_AUDIT=ON > /dev/null
  cmake --build build-check/strict -j "$JOBS" --target iscope_lint
  ./build-check/strict/tools/lint/iscope_lint --root . \
      --baseline tools/lint/baseline.json src tests bench examples
}

stage_tidy() {
  stage "clang-tidy (warnings as errors)"
  if command -v clang-tidy > /dev/null 2>&1; then
    cmake -B build-check/tidy -S . \
          -DISCOPE_CLANG_TIDY=ON -DISCOPE_CLANG_TIDY_WERROR=ON > /dev/null
    cmake --build build-check/tidy -j "$JOBS"
  else
    echo "clang-tidy not installed; skipping static analysis stage"
  fi
}

stage_ubsan() {
  stage "UBSan (+ float-cast-overflow) build + tests"
  # GCC's `undefined` group leaves out float-cast-overflow: an out-of-range
  # double cast to an integer (say, a parsed count) would pass unreported.
  cmake -B build-check/ubsan -S . \
        -DISCOPE_SANITIZE=undefined -DISCOPE_AUDIT=ON \
        -DCMAKE_CXX_FLAGS=-fsanitize=float-cast-overflow > /dev/null
  cmake --build build-check/ubsan -j "$JOBS"
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
      ctest --test-dir build-check/ubsan --output-on-failure
}

stage_asan() {
  stage "ASan fault-injection + parser-fuzz + checkpoint + driver + cluster + placement + shard tests"
  # Targeted: the suites that stress failure paths, requeue bookkeeping,
  # and hostile parser inputs -- where lifetime bugs would hide. The
  # checkpoint and event-queue suites push truncated and bit-flipped
  # blobs through the codec's reader and the queue's restore; the thermal
  # and profiling suites drive the sleep, thermal and scan-slot drivers;
  # the hardware and variation suites build clusters on chip-range threads
  # (including builds that throw mid-range) and check the Min Vdd solver;
  # the policy and equivalence suites drive the idle bitset's word
  # arithmetic and Ran's virtual draw pool; the waiting-queue suite drives
  # the index's slots, bucket tree and compaction under random edits; the
  # shard suite drives the coordinator's per-shard rack ranges and its
  # sparse futures vector.
  ASAN_TESTS="test_fault test_fuzz_parsers test_properties test_checkpoint
              test_event_queue test_thermal test_sim_profiling
              test_hardware test_varius test_policy test_waiting_queue
              test_match_equivalence test_shard"
  cmake -B build-check/asan -S . \
        -DISCOPE_SANITIZE=address -DISCOPE_AUDIT=ON > /dev/null
  # shellcheck disable=SC2086
  cmake --build build-check/asan -j "$JOBS" --target $ASAN_TESTS
  for t in $ASAN_TESTS; do
    ASAN_OPTIONS=halt_on_error=1 "./build-check/asan/tests/$t" > /dev/null \
        || { echo "asan: $t failed" >&2; exit 1; }
    echo "asan ok: $t"
  done
}

stage_tsan() {
  stage "TSan shard determinism (faulted shards included) + multi-shard smoke (fig8, 4 shards x 4 workers) + pinned sharded-thermal rows + service chaos + cluster build"
  # Epoch-barrier handoff under real thread interleaving: the fig8 energy
  # scenario at scale 0.5 (240 CPUs = 5 racks, so 4 rack-aligned shards
  # fit) with the shard loops fanned out over 4 pool workers. Any data
  # race on the shard queues, supply views, or telemetry sinks trips TSan.
  cmake -B build-check/tsan -S . \
        -DISCOPE_SANITIZE=thread -DISCOPE_AUDIT=ON > /dev/null
  cmake --build build-check/tsan -j "$JOBS" \
        --target bench_fig8_energy_cost test_shard test_service_chaos \
                 test_hardware test_thermal
  # ShardDeterminism.FaultedWorkerCountDoesNotMoveABit runs four shards'
  # fault cursors over one plan's shared per-processor streams.
  TSAN_OPTIONS=halt_on_error=1 \
      ./build-check/tsan/tests/test_shard \
      --gtest_filter='ShardDeterminism.*' > /dev/null \
      || { echo "tsan: test_shard worker determinism failed" >&2; exit 1; }
  echo "tsan ok: test_shard worker determinism (faulted shards included)"
  TSAN_OPTIONS=halt_on_error=1 \
  ISCOPE_SCALE=0.5 ISCOPE_PARALLEL=1 ISCOPE_SHARDS=4 ISCOPE_SHARD_WORKERS=4 \
      ./build-check/tsan/bench/bench_fig8_energy_cost > /dev/null \
      || { echo "tsan: bench_fig8_energy_cost sharded failed" >&2; exit 1; }
  echo "tsan ok: bench_fig8_energy_cost sharded"
  # Same partition with the thermal/CRAC model and the timeout sleep
  # governor armed: the coordinator-resolved thermal step and the sleep
  # event chains must survive real thread interleaving (thermal stage's
  # TSan half).
  TSAN_OPTIONS=halt_on_error=1 \
  ISCOPE_SCALE=0.5 ISCOPE_PARALLEL=1 ISCOPE_SHARDS=4 ISCOPE_SHARD_WORKERS=4 \
  ISCOPE_THERMAL=1 ISCOPE_SLEEP_POLICY=timeout \
      ./build-check/tsan/bench/bench_fig8_energy_cost > /dev/null \
      || { echo "tsan: bench_fig8_energy_cost sharded thermal+sleep failed" >&2;
           exit 1; }
  echo "tsan ok: bench_fig8_energy_cost sharded thermal+sleep"
  # The pinned sharded-thermal rows at 1 and 4 workers: only shards with
  # work are dispatched, and the coordinator reads each shard's queue and
  # rack power between rounds.
  TSAN_OPTIONS=halt_on_error=1 \
      ./build-check/tsan/tests/test_thermal \
      --gtest_filter='ThermalDeterminism.*' > /dev/null \
      || { echo "tsan: test_thermal sharded determinism failed" >&2; exit 1; }
  echo "tsan ok: test_thermal sharded determinism + pinned rows"
  # FaultSpec replay against the live daemon: the poll loop, the signal
  # flag, and the client interplay are raced-checked end to end.
  TSAN_OPTIONS=halt_on_error=1 \
      ./build-check/tsan/tests/test_service_chaos > /dev/null \
      || { echo "tsan: test_service_chaos failed" >&2; exit 1; }
  echo "tsan ok: test_service_chaos daemon under fault storm"
  # build_cluster derives truth curves in chip ranges on hardware threads:
  # a 4 096-chip build against its serial oracle, and builds that throw
  # from the calling thread's range and from a later one.
  TSAN_OPTIONS=halt_on_error=1 \
      ./build-check/tsan/tests/test_hardware \
      --gtest_filter='Cluster.ParallelBuildEqualsSerialReference:Cluster.UnreachableLevelThrowsFromAnyChipRange' \
      > /dev/null \
      || { echo "tsan: test_hardware threaded cluster build failed" >&2; exit 1; }
  echo "tsan ok: test_hardware threaded cluster build"
}

stage_coverage() {
  stage "coverage floor (src/fault + src/sched + sim drivers + codec >= ${COVERAGE_MIN}% lines)"
  COV_TESTS="test_fault test_knowledge test_policy test_waiting_queue \
             test_simulator test_match_equivalence test_properties \
             test_power_matcher test_thermal test_sim_profiling \
             test_checkpoint test_fuzz_parsers"
  # The drivers and the serial adapters are header-only: their lines are
  # counted in the objects that instantiate them (the simulator, the
  # checkpoint codec and the wire codec).
  COV_FILES='src/(fault|sched)/|src/sim/(fault_driver|profiling_driver|thermal_driver|sleep_governor)[.]hpp|src/service/wire[.]cpp|src/common/serial[.]hpp'
  cmake -B build-check/coverage -S . -DISCOPE_COVERAGE=ON > /dev/null
  # shellcheck disable=SC2086
  cmake --build build-check/coverage -j "$JOBS" --target $COV_TESTS
  for t in $COV_TESTS; do
    "./build-check/coverage/tests/$t" > /dev/null
  done
  # Aggregate gcov line coverage over the gated directories. gcov prints a
  # `File '...'` header followed by its `Lines executed:P% of N` summary;
  # trailing per-object aggregates have no File header and are skipped.
  COV_WORK="build-check/coverage/gcov-work"
  rm -rf "$COV_WORK" && mkdir -p "$COV_WORK"
  find "$PWD/build-check/coverage/src/fault" \
       "$PWD/build-check/coverage/src/sched" \
       "$PWD/build-check/coverage/src/sim" \
       "$PWD/build-check/coverage/src/service" -name '*.gcda' \
    | (cd "$COV_WORK" && xargs gcov -n 2>/dev/null) \
    | awk -v min="$COVERAGE_MIN" -v files="$COV_FILES" '
        /^File /          { keep = ($0 ~ files) }
        /^Lines executed:/ {
          if (keep) {
            line = $0; sub(/^Lines executed:/, "", line);
            split(line, b, "% of ");
            covered += b[1] * b[2] / 100; total += b[2];
          }
          keep = 0
        }
        END {
          if (total == 0) { print "coverage: no gcov data found"; exit 1 }
          pct = covered / total * 100;
          printf "coverage: %.2f%% of %d lines (floor %s%%)\n", \
                 pct, total, min;
          exit (pct < min) ? 1 : 0
        }'
}

stage_perfbench() {
  stage "perfbench (1 s run per workload: exit 0, correct, no failed ops)"
  # perfbench/run.py builds its own tree and prints one JSON result as the
  # last stdout line. This stage checks that every workload still runs and
  # passes its output checks; it makes no timing claim.
  for w in paper_sweep hyperscale_shards serve_stream; do
    out="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 \
               --trace 0)" \
        || { echo "perfbench: $w exited non-zero" >&2; exit 1; }
    last="$(printf '%s\n' "$out" | tail -n 1)"
    printf '%s\n' "$last" | grep -q '"correct": true' \
        || { echo "perfbench: $w not correct: $last" >&2; exit 1; }
    printf '%s\n' "$last" | grep -q '"failed": 0[,}]' \
        || { echo "perfbench: $w has failed operations: $last" >&2; exit 1; }
    echo "perfbench ok: $w"
  done
}

want strict          && stage_strict
want tests           && stage_tests
want bench-smoke     && stage_bench_smoke
want telemetry-smoke && stage_telemetry_smoke
want shard-identity  && stage_shard_identity
want service         && stage_service
want thermal         && stage_thermal
want lint            && stage_lint
want tidy            && stage_tidy
want ubsan           && stage_ubsan
want asan            && stage_asan
want tsan            && stage_tsan
want coverage        && stage_coverage
want perfbench       && stage_perfbench

if [ -n "$ONLY_STAGE" ]; then
  stage "stage '$ONLY_STAGE' passed"
else
  stage "all checks passed"
fi
