#!/usr/bin/env bash
# The repository's full gate, one job at a time or all of them:
#
#   ci/run.sh <job>   run one job's steps; exits non-zero on the first failing step
#   ci/run.sh all     run every job in order, print `<job> pass|FAIL <seconds>`
#                     for each, and exit non-zero if any failed
#
# The workflow (.github/workflows/ci.yml) runs one job per runner through
# this script; locally `ci/run.sh all` runs the same steps. A job writes its
# outputs to target/ci/<job>/, emptied when the job starts.
set -Eeuo pipefail

# ---------------------------------------------------------------------------
# Pins. The sweep digests are pins: a change of protocol behaviour (other
# messages, other times) moves them once, on purpose, and says so in
# CHANGES.md; anything else that moves them is a bug. The tests that
# `assert_eq!` a digest (`parallel_determinism`, `golden`) hold their own.
# ---------------------------------------------------------------------------
SMOKE_DIGEST='digest=08393542021380d7'      # `smoke`: 32 runs
SWEEP_DIGEST='digest=a321607d8fb5a0a5'      # `sweep`: 16 seeds, 400 runs
SWEEP_96_DIGEST='digest=5c3e33181a5c679c'   # `sweep --seeds 96`: 2,400 runs
SWEEP_512_DIGEST='digest=5592c495551e69cb'  # `sweep --seeds 512`: 12,800 runs
GEN_SMALL_DIGEST='digest=618412ab9dcad6b7'  # `gen-sweep --count 16 --seeds 2`
GEN_SWEEP_DIGEST='digest=68deebc9b8540717'  # `gen-sweep`: 1,280 runs
# A hand-written sweep leaves no participant context undecided.
OPEN_CONTEXTS='open_contexts=0'
NO_VIOLATIONS=' violations=0$'
# The violating journal (gen:0, duplication, dedup off) trips both checkers
# on the same five events.
CONFORM_DIVERGENCES='5 divergence(s)'
MONITOR_FINDINGS='monitor: 5 finding(s)'
# `core::peer` is the protocol; delivery, failure detection and the timer
# registry live in their own modules. These bounds (lines) keep the split
# from quietly growing back.
LAYER_BOUNDS='peer:2721 delivery:500 detector:500'
# The benchmark's message count and commit latency in ticks are exact at
# seed 0: one `<workload> <metric> <value> <unit>` line each.
BIG_DOC_MSGS='big-doc msgs_per_txn 43.19 count'
BIG_DOC_TICKS='big-doc commit_ticks_p50 37 ticks'
COMMIT_STREAM_MSGS='commit-stream msgs_per_txn 45.221 count'
COMMIT_STREAM_TICKS='commit-stream commit_ticks_p50 38 ticks'
TRACED_MATRIX_MSGS='traced-matrix msgs_per_txn 51.99166666666667 count'
TRACED_MATRIX_TICKS='traced-matrix commit_ticks_p50 41 ticks'
FAULT_MATRIX_MSGS='fault-matrix msgs_per_txn 51.99166666666667 count'
FAULT_MATRIX_TICKS='fault-matrix commit_ticks_p50 41 ticks'

JOBS=(check chaos-smoke gen-smoke store-smoke obs-smoke profile-smoke spec-smoke budget-smoke benchmark-smoke
  benchmark-trajectory)

# All dependencies are vendored path crates (vendor/*); nothing is fetched
# from a registry.
export CARGO_NET_OFFLINE=true

cd "$(dirname "$0")/.."

bench() { cargo run --release --offline --manifest-path benchmark/Cargo.toml -- "$@"; }

check() {
  cargo fmt --all --check
  cargo clippy --all-targets -- -D warnings
  local bound file lines
  for bound in $LAYER_BOUNDS; do
    file="crates/core/src/${bound%%:*}.rs"
    lines=$(wc -l < "$file")
    if [ "$lines" -gt "${bound##*:}" ]; then
      echo "$file has $lines lines, over ${bound##*:}" >&2
      exit 1
    fi
  done
  cargo test -q
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

chaos-smoke() {
  cargo run --release -p axml-chaos -- smoke | tee "$out/smoke.txt"
  grep -qx "$SMOKE_DIGEST" "$out/smoke.txt"
  # 2,400 runs: the width at which the since fixed split-outcome window
  # showed — six violations that sixteen seeds never met.
  cargo run --release -p axml-chaos -- sweep --seeds 96 --jobs "$(nproc)" | tee "$out/sweep-96.txt"
  grep -qx "$SWEEP_96_DIGEST" "$out/sweep-96.txt"
  grep -qx "$OPEN_CONTEXTS" "$out/sweep-96.txt"
  # 12,800 runs, about 3 s in release: the widest hand-written sweep.
  cargo run --release -p axml-chaos -- sweep --seeds 512 --jobs 1 | tee "$out/sweep-512.txt"
  grep -qx "$SWEEP_512_DIGEST" "$out/sweep-512.txt"
  grep -qx "$OPEN_CONTEXTS" "$out/sweep-512.txt"
  grep -qE "$NO_VIOLATIONS" "$out/sweep-512.txt"
  # A parallel sweep is byte-identical to a serial one. Both runs write the
  # same `--prom` path, since the report echoes it.
  cargo run --release -p axml-chaos -- sweep --jobs 1 --prom "$out/sweep.prom" > "$out/sweep-report.txt"
  mv "$out/sweep.prom" "$out/sweep-serial.prom" && mv "$out/sweep-report.txt" "$out/sweep-serial.txt"
  cargo run --release -p axml-chaos -- sweep --jobs "$(nproc)" --prom "$out/sweep.prom" > "$out/sweep-report.txt"
  diff "$out/sweep-serial.txt" "$out/sweep-report.txt"
  diff "$out/sweep-serial.prom" "$out/sweep.prom"
  grep -qx "$SWEEP_DIGEST" "$out/sweep-serial.txt"
  # The oracle catches and shrinks the broken no-dedup variant.
  cargo run --release -p axml-chaos -- shrink-demo
  cargo run --release -p axml-chaos -- trace --demo | tee "$out/trace-sample.txt"
}

gen-smoke() {
  # Zero violations, byte-identical across job counts.
  cargo run --release -p axml-chaos -- gen-sweep --count 16 --seeds 2 --jobs 1 --prom "$out/gen.prom" > "$out/gen-report.txt"
  mv "$out/gen.prom" "$out/gen-serial.prom" && mv "$out/gen-report.txt" "$out/gen-serial.txt"
  cargo run --release -p axml-chaos -- gen-sweep --count 16 --seeds 2 --jobs "$(nproc)" --prom "$out/gen.prom" > "$out/gen-report.txt"
  diff "$out/gen-serial.txt" "$out/gen-report.txt"
  diff "$out/gen-serial.prom" "$out/gen.prom"
  grep -qx "$GEN_SMALL_DIGEST" "$out/gen-serial.txt"
  # The full generated sweep: 1,280 runs.
  cargo run --release -p axml-chaos -- gen-sweep --jobs "$(nproc)" | tee "$out/gen-sweep.txt"
  grep -qx "$GEN_SWEEP_DIGEST" "$out/gen-sweep.txt"
  # Every context left undecided sits on a peer offline at case end, and
  # each is named on an `EXCUSED` line.
  grep -qx 'open_contexts_unexcused=0' "$out/gen-sweep.txt"
  test "$(grep -c '^EXCUSED ' "$out/gen-sweep.txt")" -eq "$(sed -n 's/^open_contexts=//p' "$out/gen-sweep.txt")"
  # Fixed bugs stay fixed, tracked bugs still reproduce.
  cargo run --release -p axml-chaos -- corpus | tee "$out/corpus-replay.txt"
}

store-smoke() {
  cargo test --release -p axml-store
  # Crash-restart recovery matches the uncrashed reference.
  cargo run --release -p axml-chaos -- store-smoke --seeds 8 | tee "$out/store-smoke.txt"
  # A chaos case's WAL segments live in memory, so a sweep makes no
  # filesystem call: it must run, unchanged, where no temp directory can be
  # made. Built first, since the compiler does need one.
  cargo build --release -p axml-chaos
  TMPDIR=/dev/null/axml ./target/release/axml-chaos sweep --seeds 96 --jobs 1 | tee "$out/sweep-no-tmpdir.txt"
  grep -qx "$SWEEP_96_DIGEST" "$out/sweep-no-tmpdir.txt"
  grep -qE "$NO_VIOLATIONS" "$out/sweep-no-tmpdir.txt"
  # Every participant of gen:0..16 crash-restarted at every t < 80 (9,920
  # windows; ignored by the debug `cargo test`).
  cargo test --release --test crash_walk
  # Every non-super participant of gen:0..16 offline at every t < 80 for six
  # lengths (43,200 windows, held to the offline ledger; ignored by the
  # debug `cargo test`).
  cargo test --release --test reconnect
  # The storage fault profile: zero violations at any job count.
  cargo run --release -p axml-chaos -- sweep --scenarios fig1-crash,fig1 --profiles storage --seeds 8 --jobs 1 > "$out/store-sweep-serial.txt"
  cargo run --release -p axml-chaos -- sweep --scenarios fig1-crash,fig1 --profiles storage --seeds 8 --jobs "$(nproc)" > "$out/store-sweep-par.txt"
  diff "$out/store-sweep-serial.txt" "$out/store-sweep-par.txt"
}

obs-smoke() {
  cargo run --release -p axml-chaos -- trace --demo --journal "$out/demo.jsonl"
  # Analytics and the offline monitor replay; fails on any finding.
  cargo run --release -p axml-obs -- "$out/demo.jsonl" --prom "$out/demo.prom" | tee "$out/obs-report.txt"
  # Replays are byte-identical. The report echoes its `--prom` path, so the
  # replay writes the same path, after the first exposition is put aside.
  cp "$out/demo.prom" "$out/demo1.prom"
  cargo run --release -p axml-chaos -- trace --demo --journal "$out/demo2.jsonl"
  cargo run --release -p axml-obs -- "$out/demo2.jsonl" --prom "$out/demo.prom" > "$out/obs-report2.txt"
  diff "$out/obs-report.txt" "$out/obs-report2.txt"
  diff "$out/demo1.prom" "$out/demo.prom"
}

profile-smoke() {
  # The phase profile over a replayed journal is byte-identical.
  cargo run --release -p axml-chaos -- trace --demo --journal "$out/demo.jsonl"
  cargo run --release -p axml-chaos -- trace --demo --journal "$out/demo2.jsonl"
  cargo run --release -p axml-obs -- profile "$out/demo.jsonl" | tee "$out/profile-report.txt"
  cargo run --release -p axml-obs -- profile "$out/demo2.jsonl" > "$out/profile-report2.txt"
  diff "$out/profile-report.txt" "$out/profile-report2.txt"
  cargo run --release -p axml-obs -- profile "$out/demo.jsonl" --json "$out/profile.json" > /dev/null
  cargo run --release -p axml-obs -- profile "$out/demo2.jsonl" --json "$out/profile2.json" > /dev/null
  diff "$out/profile.json" "$out/profile2.json"
  # `stats --demo` folds the live journal's sample column; `axml-obs
  # profile` folds the column a stored journal loads back into. The two
  # gauge-series summaries (headers aside) must be the same bytes.
  cargo run --release -p axml-chaos -- stats --demo > "$out/stats-demo.txt"
  cargo run --release -p axml-chaos -- trace --demo --journal "$out/demo-series.jsonl" > /dev/null
  cargo run --release -p axml-obs -- profile "$out/demo-series.jsonl" > "$out/profile-demo.txt"
  sed -n '/^== gauge series/,/^$/p' "$out/stats-demo.txt" | tail -n +2 > "$out/series-in-memory.txt"
  sed -n '/^== gauge series/,/^$/p' "$out/profile-demo.txt" | tail -n +2 > "$out/series-stored.txt"
  grep -q '^outbox_depth ' "$out/series-in-memory.txt"
  diff "$out/series-in-memory.txt" "$out/series-stored.txt"
  # The gauge series is byte-identical across job counts.
  cargo run --release -p axml-chaos -- sweep --jobs 1 --series "$out/sweep-serial.series" > /dev/null
  cargo run --release -p axml-chaos -- sweep --jobs "$(nproc)" --series "$out/sweep-par.series" > /dev/null
  diff "$out/sweep-serial.series" "$out/sweep-par.series"
  cargo run --release -p axml-chaos -- gen-sweep --count 16 --seeds 2 --jobs 1 --series "$out/gen-serial.series" > /dev/null
  cargo run --release -p axml-chaos -- gen-sweep --count 16 --seeds 2 --jobs "$(nproc)" --series "$out/gen-par.series" > /dev/null
  diff "$out/gen-serial.series" "$out/gen-par.series"
  # A corpus violation replay drops a flight-recorder dump.
  cargo run --release -p axml-chaos -- corpus --flight "$out/flight-dumps"
  test -n "$(ls -A "$out/flight-dumps")"
}

spec-smoke() {
  # The clean catalogue has zero violations; the broken variant is refuted
  # with a counterexample.
  cargo run --release -p axml-spec -- check
  cargo run --release -p axml-spec -- check --broken | tee "$out/counterexample.txt"
  # A traced chaos run conforms to the model.
  cargo run --release -p axml-chaos -- trace --demo --journal "$out/demo.jsonl"
  cargo run --release -p axml-spec -- conform --journal "$out/demo.jsonl" | tee "$out/conformance.txt"
  # Both checkers fire on a violating journal.
  cargo run --release -p axml-chaos -- trace gen:0 --profile dups --seed 0 --no-dedup --journal "$out/bad.jsonl"
  if cargo run --release -p axml-spec -- conform --journal "$out/bad.jsonl" > "$out/bad-conform.txt"; then
    echo "conformance passed a violating journal"; exit 1
  fi
  grep -F "$CONFORM_DIVERGENCES" "$out/bad-conform.txt"
  if cargo run --release -p axml-obs -- "$out/bad.jsonl" > "$out/bad-obs.txt"; then
    echo "monitor passed a violating journal"; exit 1
  fi
  grep -F "$MONITOR_FINDINGS" "$out/bad-obs.txt"
}

budget-smoke() {
  # Deterministic: the count is a pure function of the code, so this gates
  # on shared runners where wall time cannot. Allocations per Fig. 1
  # commit, per big-doc transaction and per fragment clone / capture, then
  # per chaos case (run_case and traced, over the 25 cells).
  cargo test --release --test alloc_budget -- --nocapture | tee "$out/alloc-budget.txt"
  cargo test --release --test chaos_alloc_budget -- --nocapture | tee "$out/chaos-alloc-budget.txt"
  # The same kind of gate for the cost that scales with the number of
  # peers: messages per committed Fig. 1 transaction, by kind. Exact, and
  # prints the table when a row moves.
  cargo test --release --test msg_budget
  # No live peer is ever suspected (64 seeds x 3 trees, 4,000 sequential
  # commits).
  cargo test --release --test keepalive
  # The profiler counts the allocations the budgets count. Both counts are
  # exact, so they must be equal: a profiler that measured something else
  # than the budgets gate would point the next optimisation at the wrong
  # allocations (and a profiler nobody runs rots).
  cargo run --release --example hot_path_profile | tee "$out/hot-path-profile.txt"
  cat "$out/alloc-budget.txt" "$out/chaos-alloc-budget.txt" | grep -E '^alloc-count (fig1|big-doc|run_case) ' | sort > "$out/counted-by-tests.txt"
  grep -E '^alloc-count (fig1|big-doc|run_case) ' "$out/hot-path-profile.txt" | sort > "$out/counted-by-profiler.txt"
  test "$(wc -l < "$out/counted-by-tests.txt")" -eq 3
  diff "$out/counted-by-tests.txt" "$out/counted-by-profiler.txt"
}

benchmark-smoke() {
  # One test thread: `benchmark/src/matrix.rs:148` names its WAL scratch
  # directories by process id and a per-instance counter from 0, so two
  # tests of one process share them and one's cleanup takes the other's
  # segments away mid-append — about one run in six loses
  # `outcome_latency_equals_the_journal_derived_one` to "forced WAL append
  # failed: NotFound". The fix belongs to the benchmark-maintenance PR
  # (ROADMAP item 9); other PRs may not edit benchmark/.
  cargo test --release --offline --manifest-path benchmark/Cargo.toml -- --test-threads=1
  # The benchmark's files are normative: a change that had to edit one to
  # keep it compiling (or let a build rewrite its lock file) stops here
  # instead of being measured with an instrument of its own.
  git diff --exit-code -- benchmark BENCHMARK.json
  # A run fails when a document is not restored after an abort, a pass is
  # not bit-identical to pass 0, or a peer is left non-quiescent. Shared
  # runners are too noisy to gate wall time, but the message count and the
  # commit latency in ticks are exact at seed 0: each run also greps both,
  # so a count regression fails here.
  bench run --workload big-doc --seconds 2 | tee "$out/big-doc.txt"
  grep -qx "$BIG_DOC_MSGS" "$out/big-doc.txt"
  grep -qx "$BIG_DOC_TICKS" "$out/big-doc.txt"
  bench run --workload commit-stream --seconds 2 | tee "$out/commit-stream.txt"
  grep -qx "$COMMIT_STREAM_MSGS" "$out/commit-stream.txt"
  grep -qx "$COMMIT_STREAM_TICKS" "$out/commit-stream.txt"
  # The fully journalled path: every pass must be bit-identical to pass 0
  # and report the same labelled failures.
  bench run --workload traced-matrix --seconds 2 | tee "$out/traced-matrix.txt"
  grep -qx "$TRACED_MATRIX_MSGS" "$out/traced-matrix.txt"
  grep -qx "$TRACED_MATRIX_TICKS" "$out/traced-matrix.txt"
  # The same cases without a journal: recovery code, WAL appends and crash
  # recovery, and the oracle carry the pass.
  bench run --workload fault-matrix --seconds 2 | tee "$out/fault-matrix.txt"
  grep -qx "$FAULT_MATRIX_MSGS" "$out/fault-matrix.txt"
  grep -qx "$FAULT_MATRIX_TICKS" "$out/fault-matrix.txt"
  # Other blocks of case seeds than the default one:
  # the split-outcome window showed at widths the default block never met,
  # so no case of these blocks may fail the oracle either.
  local seed
  for seed in 1 7; do
    bench run --workload fault-matrix --seed "$seed" --seconds 2 | tee "$out/fault-matrix-$seed.txt"
    tail -n 1 "$out/fault-matrix-$seed.txt" | grep -q '"failed": 0,'
  done
}

# The latest committed trajectory point (`trajectory/pr-<n>.json`) against a
# fresh run of the same seed. Exact metrics — message and tick counts,
# failed shares — must be equal, and every workload must be there; wall
# clock on a shared runner is only flagged.
benchmark-trajectory() {
  bench all --seed 0 --out "$out/fresh.json"
  local latest
  latest=$(ls trajectory/pr-*.json | sort -V | tail -n 1)
  echo "comparing against $latest"
  bench compare "$latest" "$out/fresh.json" > "$out/compare.txt" || true
  cat "$out/compare.txt"
  { grep '| WORSE$' "$out/compare.txt" || true; } | while read -r row; do echo "::warning title=wall clock::$row"; done
  if grep -E '\| (DIFFERENT|MISSING)$' "$out/compare.txt"; then
    echo "an exact metric moved or a row is missing: re-pin with a new trajectory point, on purpose" >&2
    exit 1
  fi
}

usage() {
  echo "usage: ci/run.sh <job>|all; jobs: ${JOBS[*]}" >&2
  exit 2
}

[ $# -eq 1 ] || usage
if [ "$1" = all ]; then
  failed=0
  for job in "${JOBS[@]}"; do
    start=$SECONDS
    if ci/run.sh "$job"; then status=pass; else status=FAIL failed=1; fi
    echo "$job $status $((SECONDS - start))"
  done
  exit "$failed"
fi
[[ " ${JOBS[*]} " == *" $1 "* ]] || usage
job=$1
out="target/ci/$job"
rm -rf "$out"
mkdir -p "$out"
# A failing `grep -q` step says nothing of itself: name it.
trap 'echo "ci/run.sh $job: failed at line $LINENO: $BASH_COMMAND" >&2' ERR
"$job"
